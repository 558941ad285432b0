"""Self-tests of the benchmark: generators, reference checks, tracing.

    python3 perfbench/selftest.py

Run from the root of a checkout; takes about half a minute, most of it
one traced pass of each workload.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

cli = run.load_cli()
from hopes.herbrand import ground_instantiate  # noqa: E402
from hopes.parser import parse_program  # noqa: E402
from hopes.typecheck import typecheck  # noqa: E402


def make_pass(workload: str, seed: int) -> list[workloads.Job]:
    rng = random.Random(seed)
    return workloads.WORKLOADS[workload](rng, workloads.Tagger(rng))


class Scratch(unittest.TestCase):
    def setUp(self):
        run.WORK.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))

    def tearDown(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run_jobs(self, jobs, tracer=None):
        if tracer is None:
            return run.run_pass(cli, jobs, self.workdir, None, 0)
        with tracer.installed():
            return run.run_pass(cli, jobs, self.workdir, tracer, 0)


class Generators(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                first = [job.text for job in make_pass(workload, 5)]
                self.assertEqual(first, [job.text for job in make_pass(workload, 5)])

    def test_no_program_text_repeats(self):
        rng = random.Random(5)
        tagger = workloads.Tagger(rng)
        texts = [job.text for _ in range(2) for job in workloads.corpus_pass(rng, tagger)]
        self.assertEqual(len(texts), len(set(texts)))

    def test_second_seed_same_sizes(self):
        def sizes(seed):
            out = []
            for job in make_pass(workload, seed):
                if job.command == "check" or job.instance.family == "broken":
                    continue
                tp = typecheck(parse_program(job.text))
                g = ground_instantiate(tp, job.depth or 3)
                out.append((job.instance.family, job.command, len(g.atoms), len(g.clauses)))
            return out

        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(sizes(1), sizes(2))

    def test_rename_round_trip(self):
        for path in sorted(workloads.CORPUS_DIR.glob("*.hop")):
            text = path.read_text(encoding="utf-8")
            renamed = workloads.rename(text, "qxzv")
            self.assertNotEqual(renamed, text)
            self.assertEqual(workloads.unrename(renamed, "qxzv"), text)

    def test_acyclic_evaluator_on_defaults(self):
        atoms = ["p", "q", "r", "s"]
        clauses = [("p", (), ()), ("r", (), ("p",)), ("s", (), ("q",))]
        self.assertEqual(
            workloads.evaluate_acyclic(atoms, clauses),
            {"p": "T0", "q": "F0", "r": "F1", "s": "T1"},
        )


class ReferenceChecks(Scratch):
    """The checks pass on the program's answers and flag wrong ones."""

    def run_instance(self, inst, specs):
        jobs = workloads._jobs(inst, specs, workloads.Tagger(random.Random(3)))
        _lat, _factors, results = self.run_jobs(jobs)
        return jobs, results

    def test_correct_answers_pass(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                jobs = make_pass(workload, 9)
                _lat, _factors, results = self.run_jobs(jobs)
                self.assertEqual(reference.check_pass(jobs, results), {})

    def test_wrong_model_is_flagged(self):
        jobs, results = self.run_instance(workloads.chain(12), [("model", "text", (), {0})])
        code, out = results[0]
        tag = jobs[0].tag
        wrong = out.replace(f"a0005_{tag} = F5", f"a0005_{tag} = T5")
        self.assertNotEqual(wrong, out)
        problems = reference.check_pass(jobs, [(code, wrong)])
        self.assertIn(0, problems)

    def test_reordered_model_is_accepted(self):
        jobs, results = self.run_instance(workloads.chain(12), [("model", "json", (), {0})])
        code, out = results[0]
        obj = json.loads(out)
        obj["atoms"].reverse()
        self.assertEqual(reference.check_pass(jobs, [(code, json.dumps(obj))]), {})

    def test_collapse_mismatch_is_flagged(self):
        rng = random.Random(4)
        inst = workloads.random_program(rng, 40)  # no closed form: only the cross-check
        jobs, results = self.run_instance(inst, [("model", "text", (), {0}), ("wf", "text", (), {0})])
        self.assertEqual(reference.check_pass(jobs, results), {})
        code, out = results[1]
        lines = out.splitlines()
        undef = next(i for i, line in enumerate(lines) if line.endswith(" = Undef"))
        lines[undef] = lines[undef].replace("Undef", "False")
        problems = reference.check_pass(jobs, [results[0], (code, "\n".join(lines) + "\n")])
        self.assertIn(0, problems)

    def test_non_stable_model_is_flagged(self):
        inst = workloads.Instance("even_loop", "#pred p : o.\n#pred q : o.\np :- ~q.\nq :- ~p.\n", 3)
        specs = [("ground", "json", (), {0}), ("stable", "json", (), {0})]
        jobs, results = self.run_instance(inst, specs)
        self.assertEqual(reference.check_pass(jobs, results), {})
        code, out = results[1]
        obj = json.loads(out)
        tag = jobs[1].tag
        obj["models"].append({"atoms": [f"p_{tag}", f"q_{tag}"]})
        problems = reference.check_pass(jobs, [results[0], (code, json.dumps(obj))])
        self.assertIn(1, problems)

    def test_wrong_exit_and_exception_are_flagged(self):
        jobs, results = self.run_instance(workloads.chain(5), [("stratify", "json", (), {0})])
        self.assertEqual(reference.check_pass(jobs, results), {})
        self.assertIn(0, reference.check_pass(jobs, [(3, None)]))
        self.assertIn(0, reference.check_pass(jobs, [(RuntimeError("boom"), None)]))


class Tracing(Scratch):
    """Each workload loads the modules it was chosen for."""

    def shares(self, workload):
        tracer = tracing.Tracer()
        self.run_jobs(make_pass(workload, 2), tracer)
        self_time, _counts = tracer.summary()
        total = sum(self_time.values())
        by_module = {}
        for name, t in self_time.items():
            module = name.split(".")[0]
            by_module[module] = by_module.get(module, 0.0) + t / total
        return by_module, {name: t / total for name, t in self_time.items()}

    def test_dominant_modules(self):
        grounding, _ = self.shares("grounding")
        self.assertGreater(grounding["herbrand"], 0.5)
        evaluation, _ = self.shares("evaluation")
        self.assertLess(evaluation["herbrand"], 0.15)
        self.assertGreater(evaluation["engine"] + evaluation["classical"] + evaluation["analysis"], 0.4)
        for module in ("engine", "classical", "analysis"):
            self.assertGreater(evaluation[module], evaluation["herbrand"])
        _, search = self.shares("search")
        self.assertGreater(
            search["classical.stable_models"] + search["analysis.check_extensional"], 0.5
        )
        corpus, _ = self.shares("corpus")
        self.assertGreater(corpus["cli"] + corpus["parser"] + corpus["typecheck"], 0.4)

    def test_originals_restored(self):
        before = {(m, a): getattr(sys.modules[m], a) for m, a, _n, _c in tracing.TRACED}
        tracer = tracing.Tracer()
        with tracer.installed():
            self.assertNotEqual(before, {(m, a): getattr(sys.modules[m], a) for m, a in before})
        self.assertEqual(before, {(m, a): getattr(sys.modules[m], a) for m, a in before})


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_printed_metrics(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
