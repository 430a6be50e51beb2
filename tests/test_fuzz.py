"""Tests for the coverage-guided fuzzing subsystem (`src/repro/fuzz/`)."""

import dataclasses
import json

import pytest

from repro.benchmarks_lib import get_benchmark
from repro.cli import main as cli_main
from repro.explore import coop_class_for_explicit, explore_class, explore_explicit
from repro.fuzz import (
    CorpusStore,
    CoverageMap,
    FuzzConfig,
    OPERATORS,
    apply_operator,
    derive_seed,
    random_monitor,
    run_campaign,
    state_shape,
)
from repro.fuzz.corpus import CorpusEntry, entry_from_generated, rebuild_candidate
from repro.fuzz.coverage import (
    coverage_fingerprint,
    placement_features,
    run_features,
)
from repro.fuzz.generate import balanced_workload, roles_from_json, roles_to_json
from repro.fuzz.mutate import CROSSOVER_OPERATORS, Candidate
from repro.harness.report import render_fuzz_table
from repro.harness.saturation import expresso_result
from repro.placement.pipeline import ExpressoPipeline


@pytest.fixture(scope="module")
def pipeline():
    return ExpressoPipeline()


@pytest.fixture(scope="module")
def rich_candidate():
    """A generated candidate covering several families (Seq bodies, numeric
    guards for the widen/narrow operators, multiple methods)."""
    for index in range(60):
        generated = random_monitor(1234, index)
        families = " ".join(generated.families)
        if len(generated.families) >= 2 and ("counter" in families
                                             or "branchy" in families):
            return Candidate(generated.name, generated.source,
                             generated.roles, 3, 2)
    raise AssertionError("no suitable monitor in the probe range")


class TestSeeding:
    def test_derive_seed_is_stable_and_spread(self):
        assert derive_seed(7, 1) == derive_seed(7, 1)
        assert derive_seed(7, 1) != derive_seed(7, 2)
        assert derive_seed(7, 1) != derive_seed(8, 1)

    def test_entries_use_independent_derived_seeds(self):
        """Entry *i* does not depend on how many draws entry *i-1* made."""
        a = random_monitor(42, 5)
        b = random_monitor(42, 5)
        assert a.source == b.source
        # Neighbouring indices are unrelated derivations, not RNG suffixes.
        assert random_monitor(42, 4).source != a.source

    def test_roles_serialize_round_trip(self):
        generated = random_monitor(3, 1)
        encoded = roles_to_json(generated.roles)
        json.dumps(encoded)  # must be plain JSON data
        assert roles_from_json(encoded) == generated.roles

    def test_balanced_workload_matches_roles(self):
        generated = random_monitor(1, 0)
        workload = generated.workload(4, 3)
        assert len(workload) == 4
        assert any(ops for ops in workload)


class TestOperators:
    def _applied(self, name, candidate, mate=None, tries=30):
        for attempt in range(tries):
            mutated = apply_operator(name, candidate,
                                     derive_seed("op-test", name, attempt),
                                     mate)
            if mutated is not None:
                return mutated
        return None

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_operator_produces_a_compilable_monitor(self, name, rich_candidate,
                                                    pipeline):
        mate = None
        if name in CROSSOVER_OPERATORS:
            generated = random_monitor(999, 0)
            mate = Candidate(generated.name, generated.source,
                             generated.roles, 3, 2)
        mutated = self._applied(name, rich_candidate, mate)
        assert mutated is not None, f"{name} never applied"
        compiled = pipeline.compile(mutated.source)
        method_names = {method.name for method in compiled.monitor.methods}
        for role in mutated.roles:
            for method, _args, _per_op in role:
                assert method in method_names
        assert 2 <= mutated.threads <= 4 and 1 <= mutated.ops <= 3

    def test_operators_are_seed_deterministic(self, rich_candidate):
        for name in sorted(set(OPERATORS) - CROSSOVER_OPERATORS):
            seed = derive_seed("det", name)
            first = apply_operator(name, rich_candidate, seed)
            second = apply_operator(name, rich_candidate, seed)
            if first is None:
                assert second is None
            else:
                assert first.source == second.source
                assert first.roles == second.roles

    def test_resize_bounds_changes_bounds_only(self, rich_candidate):
        mutated = apply_operator("resize-bounds", rich_candidate, 5)
        assert mutated is not None
        assert mutated.source == rich_candidate.source
        assert (mutated.threads, mutated.ops) != (rich_candidate.threads,
                                                  rich_candidate.ops)


class TestCoverage:
    def test_state_shape_is_name_insensitive(self):
        fp_a = ((("count", 2), ("flag", True)),
                (("acquiring", None, 0, None), ("waiting", "c1", 1, None)))
        fp_b = ((("items", 2), ("open", True)),
                (("acquiring", None, 0, None), ("waiting", "c9", 1, None)))
        assert state_shape(fp_a) == state_shape(fp_b)

    def test_state_shape_sees_structure(self):
        base = ((("count", 2),), (("acquiring", None, 0, None),))
        wider = ((("count", 2), ("extra", 0)), (("acquiring", None, 0, None),))
        assert state_shape(base) != state_shape(wider)

    def test_map_add_preview_and_round_trip(self):
        cov = CoverageMap()
        features = {"state": {"a", "b"}, "verdict": {"completed"}}
        assert cov.preview(features) == 3
        assert cov.add(features) == 3
        assert cov.add(features) == 0
        assert cov.preview({"state": {"a", "c"}}) == 1
        decoded = CoverageMap.from_dict(
            json.loads(json.dumps(cov.to_dict())))
        assert decoded.to_dict() == cov.to_dict()

    def test_fingerprint_is_order_insensitive(self):
        fp1 = coverage_fingerprint({"state": ["a", "b"], "verdict": ["x"]})
        fp2 = coverage_fingerprint({"verdict": {"x"}, "state": {"b", "a"}})
        assert fp1 == fp2
        assert fp1 != coverage_fingerprint({"state": ["a"], "verdict": ["x"]})

    def test_placement_features_classify_decisions(self):
        signature = (("put#0", True, False, True, False),
                     ("take#0", True, True, False, True),
                     ("idle#0", False, False, False, False))
        features = placement_features(signature)
        assert "broadcast!:1" in features
        assert "signal?+4.3:1" in features
        assert "none:1" in features

    def test_sampling_strategies_export_state_shapes(self):
        spec = get_benchmark("BoundedBuffer")
        compiled = expresso_result(spec)
        coop_class = coop_class_for_explicit(compiled.explicit)
        result = explore_class(compiled.monitor, coop_class,
                               spec.workload(2, 2), strategy="random",
                               budget=20, seed=0, minimize=False,
                               state_shape=state_shape)
        assert result.state_shapes
        assert result.distinct_states > 0
        assert result.state_shapes == sorted(set(result.state_shapes))


class TestCorpus:
    def test_entry_round_trip(self, tmp_path):
        entry = entry_from_generated(11, 0)
        entry.features = {"state": ["a"], "verdict": ["completed"]}
        entry.fingerprint = "abc"
        store = CorpusStore(str(tmp_path))
        store.save_entry(entry)
        loaded = store.load_entries()
        assert len(loaded) == 1
        assert loaded[0].source == entry.source
        assert loaded[0].roles == entry.roles
        assert loaded[0].fingerprint == "abc"

    def test_mutant_rebuilds_from_seed_and_trail(self):
        root = entry_from_generated(77, 1)
        candidate = root.candidate()
        op_seed = derive_seed("trail", 0)
        mutated = None
        used = None
        for name in sorted(set(OPERATORS) - CROSSOVER_OPERATORS):
            mutated = apply_operator(name, candidate, op_seed)
            if mutated is not None:
                used = name
                break
        assert mutated is not None
        child = CorpusEntry(
            entry_id="mut-x", name=mutated.name, source=mutated.source,
            roles=tuple(roles_to_json(mutated.roles)),
            threads=mutated.threads, ops=mutated.ops,
            parent=root.entry_id, op=used, op_seed=op_seed)
        lookup = {root.entry_id: root, child.entry_id: child}
        rebuilt = rebuild_candidate(child, lookup)
        assert rebuilt is not None
        assert rebuilt.source == child.source

    def test_no_wall_clock_or_pid_in_artifacts(self, tmp_path):
        config = FuzzConfig(seed=2, budget=10, per_run_budget=10,
                            batch_size=2, bootstrap=1, workers=1)
        run_campaign(config, CorpusStore(str(tmp_path)))
        for path in tmp_path.rglob("*.json"):
            text = path.read_text()
            assert "elapsed" not in text
            assert "pid" not in text


#: Calls seen by :func:`_numbered_outcome`.  The fake is module-level
#: because dispatched jobs are pickled, the evaluating function included.
_NUMBERED_CALLS: list = []


def _numbered_outcome(job):
    """A canned failing outcome with a fresh minimized schedule per call."""
    _NUMBERED_CALLS.append(job["entry_id"])
    record = TestCampaign()._canned_outcome(job)
    record["fingerprint"] = job["entry_id"]
    record["failures"][0]["minimized"] = [len(_NUMBERED_CALLS)]
    return record


class TestCampaign:
    def _canned_outcome(self, job, kind="lost-wakeup"):
        return {
            "entry_id": job["entry_id"],
            "features": {"state": ["s1"], "verdict": [f"failure:{kind}"],
                         "dpor": [], "matrix": [], "placement": []},
            "fingerprint": "f" * 32,
            "schedules_run": 5,
            "summary": {"schedules_run": 5, "completed": 1, "stalls": 0,
                        "distinct_states": 3, "exhausted": True},
            "ok": False,
            "failures": [{"kind": kind, "detail": "canned", "schedule": [1],
                          "minimized": [1], "strategy": "dfs", "seed": None,
                          "trace": "t"}],
        }

    def test_findings_are_deduplicated(self, monkeypatch):
        import repro.fuzz.campaign as campaign_module

        monkeypatch.setattr(campaign_module, "_evaluate_candidate",
                            self._canned_outcome)
        config = FuzzConfig(seed=5, budget=100, per_run_budget=10,
                            batch_size=3, bootstrap=3, max_findings=50,
                            workers=1)
        result = run_campaign(config)
        # Every candidate reproduces the same (kind, minimized, fingerprint):
        # exactly one finding survives, the rest count as duplicates.
        assert len(result.findings) == 1
        assert result.duplicate_findings == result.monitors - 1
        assert result.findings[0]["kind"] == "lost-wakeup"
        assert result.findings[0]["coverage_fingerprint"] == "f" * 32

    def test_campaign_stops_at_max_findings(self, monkeypatch):
        import repro.fuzz.campaign as campaign_module

        _NUMBERED_CALLS.clear()
        monkeypatch.setattr(campaign_module, "_evaluate_candidate",
                            _numbered_outcome)
        config = FuzzConfig(seed=5, budget=10_000, per_run_budget=10,
                            batch_size=2, bootstrap=2, max_findings=3,
                            workers=1)
        result = run_campaign(config)
        assert len(result.findings) >= 3
        assert result.rounds <= 2

    def test_bootstrap_only_campaign_judges_generated_monitors(self):
        """A budget the bootstrap exhausts runs no mutation round: the
        campaign then just compiles and explores freshly generated
        monitors, each under its own per-run budget."""
        result = run_campaign(FuzzConfig(
            seed=11, budget=120, per_run_budget=40, bootstrap=3,
            batch_size=3, threads=4, strategy="random"))
        assert result.monitors == 3
        assert result.rounds == 0
        assert result.schedules_run == 120
        assert result.ok, result.findings
        assert result.compile_errors == []

    def test_campaign_is_deterministic_across_runs_and_workers(self, tmp_path):
        """Same seed + corpus => byte-identical coverage map and findings."""
        config = dataclasses.replace(
            _SMALL_CONFIG, workers=1)
        first = run_campaign(config, CorpusStore(str(tmp_path / "a")))
        second = run_campaign(config, CorpusStore(str(tmp_path / "b")))
        sharded = run_campaign(dataclasses.replace(config, workers=3),
                               CorpusStore(str(tmp_path / "c")))
        coverage_a = json.dumps(_last_checkpoint(tmp_path / "a")["coverage"])
        for other in (second, sharded):
            other_root = tmp_path / ("b" if other is second else "c")
            assert json.dumps(_last_checkpoint(other_root)["coverage"]) \
                == coverage_a
            assert json.dumps(first.findings) == json.dumps(other.findings)
            assert first.schedules_run == other.schedules_run
            assert first.corpus_size == other.corpus_size
        entries_a = sorted(p.name for p in (tmp_path / "a" / "entries").iterdir())
        entries_c = sorted(p.name for p in (tmp_path / "c" / "entries").iterdir())
        assert entries_a == entries_c
        for name in entries_a:
            assert (tmp_path / "a" / "entries" / name).read_bytes() \
                == (tmp_path / "c" / "entries" / name).read_bytes()

    def test_campaign_releases_the_in_process_worker_pipeline(self, tmp_path):
        """Candidates evaluated in the campaign process must not pin their
        pipeline's formula cache past the campaign; a second cold campaign
        in the same process reproduces the first exactly."""
        import repro.fuzz.campaign as campaign_module
        from repro.distrib import DistribConfig

        records = []
        for name in ("first", "second"):
            config = dataclasses.replace(_SMALL_CONFIG, distrib=DistribConfig(
                store_path=str(tmp_path / f"{name}.sqlite3")))
            result = run_campaign(config, CorpusStore(str(tmp_path / name)))
            assert campaign_module._WORKER_PIPELINE is None
            for table in _reuse_tables():
                assert not table
            assert result.monitors > 0 and result.distrib is not None
            record = result.to_dict()
            record.pop("distrib")
            records.append(record)
        assert records[0] == records[1]

    def test_each_distinct_program_is_evaluated_once(self, monkeypatch):
        """e2ebench's campaign parses, compiles, materializes and explores
        each distinct thing once (its 48 candidates have 36 distinct sources
        and 45 distinct DFS jobs), with the result of a campaign that
        reuses nothing; so does a sampling campaign, which reuses compiles
        only."""
        import repro.fuzz.campaign as campaign_module
        from repro.explore import engine
        from repro.lang import parser

        counts = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(parser, "parse_monitor")
        count(ExpressoPipeline, "compile")
        count(engine, "coop_class_for_explicit")
        count(engine, "explore_class")
        config = FuzzConfig(seed=2026, budget=400, per_run_budget=40,
                            bootstrap=4, batch_size=4, workers=1)
        reused = run_campaign(config).to_dict()
        assert reused["monitors"] == 48
        assert counts.pop("parse_monitor") <= 45
        assert counts == {"compile": 36, "coop_class_for_explicit": 36,
                          "explore_class": 45}

        counts.clear()
        small = FuzzConfig(seed=1, budget=120, per_run_budget=20,
                           bootstrap=2, batch_size=3, workers=1,
                           strategy="random")
        reused_small = run_campaign(small).to_dict()
        assert counts["compile"] < counts["explore_class"] \
            == reused_small["monitors"]

        class NeverHit(dict):
            def get(self, key, default=None):
                return default

        import repro.fuzz.mutate as mutate_module

        monkeypatch.setattr(mutate_module, "_PARSED", NeverHit())
        for name in ("_PROGRAMS", "_OUTCOMES"):
            monkeypatch.setattr(campaign_module, name, NeverHit())
        assert run_campaign(config).to_dict() == reused
        assert run_campaign(small).to_dict() == reused_small

    def test_outcome_reuse_skips_failures_errors_and_sampling(self, monkeypatch):
        """Only a clean DFS outcome is handed to a later job, under that
        job's own id; the tables stay within ``REUSE_LIMIT``."""
        import repro.fuzz.campaign as campaign_module
        import repro.fuzz.mutate as mutate_module

        monkeypatch.setattr(campaign_module, "_OUTCOMES", {})
        calls = []

        def evaluate(outcome):
            def inner(job):
                calls.append(job["entry_id"])
                return {**outcome, "entry_id": job["entry_id"]}
            monkeypatch.setattr(campaign_module, "_evaluate_candidate_inner",
                                inner)

        entry = entry_from_generated(3, 0)
        dfs = FuzzConfig(seed=3, strategy="dfs")
        first = campaign_module._entry_job(entry, dfs)
        second = {**first, "entry_id": "other", "explore_seed": 1}
        clean = {"schedules_run": 2, "ok": True, "failures": []}
        for outcome, runs in ((clean, 1),
                              ({**clean, "failures": [{"kind": "stall"}]}, 2),
                              ({"schedules_run": 0, "error": "explore: X"}, 2)):
            campaign_module._OUTCOMES.clear()
            calls.clear()
            evaluate(outcome)
            assert campaign_module._evaluate_candidate(first)["entry_id"] == "gen-3-0"
            assert campaign_module._evaluate_candidate(second)["entry_id"] == "other"
            assert len(calls) == runs
        calls.clear()
        evaluate(clean)
        random_job = campaign_module._entry_job(
            entry, dataclasses.replace(dfs, strategy="random"))
        for _ in range(2):
            campaign_module._evaluate_candidate(random_job)
        assert len(calls) == 2

        monkeypatch.setattr(mutate_module, "REUSE_LIMIT", 2)
        table = {}
        for key in range(5):
            mutate_module.remember(table, key, key)
            assert len(table) <= 2 and table[key] == key

    def test_campaign_resumes_from_a_persisted_corpus(self, tmp_path):
        store = CorpusStore(str(tmp_path))
        first = run_campaign(_SMALL_CONFIG, store)
        resumed = run_campaign(_SMALL_CONFIG, store)
        assert resumed.corpus_size >= first.corpus_size
        meta = _last_checkpoint(tmp_path)["meta"]
        assert meta["rounds_completed"] >= first.rounds


def _reuse_tables():
    """The campaign's content-keyed reuse tables."""
    import repro.fuzz.campaign as campaign_module
    import repro.fuzz.mutate as mutate_module

    return (mutate_module._PARSED, campaign_module._PROGRAMS,
            campaign_module._OUTCOMES)


def _last_checkpoint(root) -> dict:
    """The corpus's checkpoint: the last valid journal record."""
    return CorpusStore(str(root)).journal().replay().last


_SMALL_CONFIG = FuzzConfig(seed=6, budget=40, per_run_budget=25,
                           batch_size=2, bootstrap=2, workers=1)


def _blind_random_shapes_per_schedule(config):
    """State shapes per judged schedule of blind random generation: fresh
    generated monitors, each evaluated like a campaign candidate but with
    seeded random walks, no corpus and no feedback, until *config*'s
    judged-schedule budget is spent."""
    import repro.fuzz.campaign as campaign_module

    job_config = dataclasses.replace(config, strategy="random")
    coverage = CoverageMap()
    schedules = index = 0
    while schedules < config.budget:
        entry = entry_from_generated(config.seed, index)
        entry.threads, entry.ops = config.threads, config.ops
        outcome = campaign_module._evaluate_candidate(
            campaign_module._entry_job(entry, job_config))
        schedules += outcome["schedules_run"]
        if "error" not in outcome:
            coverage.add(outcome["features"])
        index += 1
    return coverage.counts().get("state", 0) / schedules


class TestFuzzGain:
    def test_campaign_beats_blind_random_generation(self, monkeypatch):
        """The fuzzing subsystem's acceptance floor: at an equal budget of
        judged schedules the campaign finds at least 2x the distinct
        scheduler-state shapes per schedule that blind random generation
        does.  Both sides are deterministic; they read 1.1823 and 0.2167."""
        import repro.fuzz.campaign as campaign_module

        # The blind side evaluates in this process; drop its worker pipeline
        # afterwards, as run_campaign does.
        monkeypatch.setattr(campaign_module, "_WORKER_PIPELINE", None)
        config = FuzzConfig(seed=2026, budget=400, per_run_budget=60,
                            threads=3, ops=2, batch_size=4, bootstrap=4,
                            max_findings=50, workers=1)
        campaign = run_campaign(config, CorpusStore(None))
        guided = campaign.coverage_counts.get("state", 0) / campaign.schedules_run
        gain = guided / _blind_random_shapes_per_schedule(config)
        assert gain >= 2.0
        assert round(gain, 2) == 5.46


class TestWitness:
    def test_mutant_finding_ships_a_definition_34_witness(self):
        spec = get_benchmark("BoundedBuffer")
        compiled = expresso_result(spec)
        site = compiled.explicit.notification_sites()[0]
        mutant = compiled.explicit.without_notification(*site)
        result = explore_explicit(mutant, compiled.monitor,
                                  spec.workload(3, 2), strategy="dfs",
                                  budget=5000, witness=True)
        assert not result.ok
        witness = result.failures[0].witness
        assert witness is not None
        assert witness["kind"] == "lost-wakeup"
        assert witness["implicit_feasible"] is True
        assert witness["explicit_feasible"] is False
        assert witness["trace"], "witness must carry the trace pair"
        assert "witness" in result.failures[0].to_dict()

    def test_parameterized_workload_mutants_carry_witnesses(self):
        # Regression: argument environments now flow through the trace
        # semantics, so benchmarks whose workloads pass method arguments
        # get Definition 3.4 witnesses too (this used to return None).
        spec = get_benchmark("Round Robin")
        compiled = expresso_result(spec)
        programs = spec.workload(3, 2)
        assert any(args for prog in programs for _m, args in prog)
        site = compiled.explicit.notification_sites()[0]
        mutant = compiled.explicit.without_notification(*site)
        result = explore_explicit(mutant, compiled.monitor, programs,
                                  strategy="dfs", budget=5000, witness=True)
        assert not result.ok
        witness = result.failures[0].witness
        assert witness is not None
        assert witness["kind"] == "lost-wakeup"
        assert witness["implicit_feasible"] is True
        assert witness["explicit_feasible"] is False

    def test_witness_absent_without_the_flag(self):
        spec = get_benchmark("BoundedBuffer")
        compiled = expresso_result(spec)
        site = compiled.explicit.notification_sites()[0]
        mutant = compiled.explicit.without_notification(*site)
        result = explore_explicit(mutant, compiled.monitor,
                                  spec.workload(3, 2), strategy="dfs",
                                  budget=5000)
        assert not result.ok
        assert result.failures[0].witness is None
        assert "witness" not in result.failures[0].to_dict()


class TestPlacementHook:
    def test_coop_class_embeds_placement_signature(self):
        spec = get_benchmark("BoundedBuffer")
        compiled = expresso_result(spec)
        coop_class = coop_class_for_explicit(compiled.explicit,
                                             placement=compiled.placement)
        assert coop_class._coop_placement
        assert "_coop_placement" in coop_class._coop_source
        labels = [row[0] for row in coop_class._coop_placement]
        assert all(isinstance(label, str) for label in labels)


class TestFuzzCli:
    def test_fuzz_json_output(self, capsys, tmp_path):
        rc = cli_main(["fuzz", "--budget", "15", "--seed", "8",
                       "--bootstrap", "2", "--batch-size", "2",
                       "--per-run-budget", "10",
                       "--corpus-dir", str(tmp_path), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        decoded = json.loads(out)
        assert decoded["ok"] is True
        assert decoded["schedules_run"] > 0
        assert "elapsed" not in out
        checkpoint = _last_checkpoint(tmp_path)
        assert sum(map(len, checkpoint["coverage"].values())) \
            == decoded["coverage_total"]
        assert checkpoint["findings"] == decoded["findings"]

    def test_fuzz_text_output(self, capsys):
        rc = cli_main(["fuzz", "--budget", "10", "--seed", "8",
                       "--bootstrap", "1", "--batch-size", "1",
                       "--per-run-budget", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Coverage-guided fuzzing campaign" in out
        assert "coverage/schedule" in out

    def test_render_fuzz_table_smoke(self):
        from repro.fuzz.campaign import FuzzCampaignResult

        result = FuzzCampaignResult(seed=1, budget=10, workers=1,
                                    strategy="dfs")
        text = render_fuzz_table(result)
        assert "findings: 0" in text
