"""Mutation gate: every listed mutant of the source must fail a named test.

    python3 tests/mutants.py

Each entry of MUTANTS gives a file of the repository, an old text that
occurs in it exactly once, the new text that replaces it, and the test
(a pytest node id or a test file) that must fail once it is replaced.  The
script first copies src/, tests/ and pyproject.toml to a temporary
directory and runs every named test there, unmutated: each must pass.  Then
for each entry it makes a fresh copy, applies the one replacement and runs
the named test in the copy, with the copy's src/ first on PYTHONPATH.  The
checkout is never edited.  The exit code is 0 when the unmutated tree
passes and every mutant fails its test, else 1.  pytest does not collect
this file (its name does not start with test_).

A mutant that changes speed but no result (an equivalent mutant) cannot
fail any test and is not listed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, old text, new text, test that must fail)
MUTANTS = [
    # the least order of a graph with omega <= t < chi = k, plus one
    ("src/chibound/oracles.py",
     "    return k + 2\n\n\ndef maximal_low_omega_sets",
     "    return k + 3\n\n\ndef maximal_low_omega_sets",
     "tests/test_oracles.py::test_least_order_table_entries"),
    # the clique-cover bound taking t - 1 vertices of each clique
    ("src/chibound/oracles.py",
     "bound += min(clique.bit_count(), t)",
     "bound += min(clique.bit_count(), t - 1)",
     "tests/test_oracles.py::"
     "test_clique_cover_bound_holds_every_set_with_low_omega"),
    # odd_hole closing only cycles of length 7 and more, so missing C5
    ("src/chibound/oracles.py",
     "if len(path) % 2 == 0 and len(path) >= 4:",
     "if len(path) % 2 == 0 and len(path) >= 6:",
     "tests/test_oracles.py::"
     "test_odd_hole_is_one_exactly_when_networkx_finds_one"),
    # the diamond scan skipping edges with exactly two common neighbours
    ("src/chibound/detect.py",
     "if not common & (common - 1):",
     "if common.bit_count() < 3:",
     "tests/test_detect.py::test_diamond_free_fast_matches_induced_search"),
    # a chi-bound violation reported at chi == bound too
    ("src/chibound/harness.py",
     "if chi is not None and chi > bound:",
     "if chi is not None and chi >= bound:",
     "tests/test_harness.py::"
     "test_chi_bound_is_checked_when_the_colorer_raises"),
    # the S/T split putting vertices with exactly t non-neighbours in S
    ("src/chibound/decompose.py",
     "if non.bit_count() < t:",
     "if non.bit_count() <= t:",
     "tests/test_decompose.py::test_gem_example"),
    # the lift's degree claim failing only above alpha
    ("src/chibound/color.py",
     "if deg >= alpha:",
     "if deg > alpha:",
     "tests/test_harness.py::"
     "test_failed_lift_degree_claim_is_a_structural_violation"),
    # THM1's bound one lower
    ("src/chibound/color.py",
     "2 * omega + omega ** 2 * comb(max(omega - 1, 0), t) + c,",
     "2 * omega + omega ** 2 * comb(max(omega - 1, 0), t) + c - 1,",
     "tests/test_harness.py::test_report_fingerprints_are_pinned"),
    # canonical augmentation's canonical vertex taken as the lowest-index
    # vertex of the root's first maximum-degree cell: not invariant
    ("src/chibound/smallgraphs.py",
     "canon = next(v for v in order if cell >> v & 1)",
     "canon = (cell & -cell).bit_length() - 1",
     "tests/test_smallgraphs.py::test_enumeration_counts"),
    # a child carrying its least-leaf order where its rows belong
    ("src/chibound/smallgraphs.py",
     "kept.append((child, _carry(rows, autos)))",
     "kept.append((child, _carry(order, autos)))",
     "tests/test_smallgraphs.py::test_enumeration_counts"),
    # from_code reading each block of columns one bit too far left
    ("src/chibound/graph.py",
     "block = int(text[end - width:end], 2)",
     "block = int(text[end - width - 1:end - 1], 2)",
     "tests/test_graph6.py"),
    # graph6's padding offset one too high: every body reads one bit off
    ("src/chibound/graph6.py",
     "pad = 6 * nbytes - nbits\n",
     "pad = 6 * nbytes - nbits + 1\n",
     "tests/test_graph6.py::test_read_graph6_file"),
    # the chi oracle taking first fit with lower + 1 colors as chi = lower
    ("src/chibound/oracles.py",
     "(lower, None) if _first_fit(g, lower, within)",
     "(lower, None) if _first_fit(g, lower + 1, within)",
     "tests/test_oracles.py::"
     "test_chi_from_its_two_ends_matches_dsatur_and_inclusion_exclusion"),
    # chi_n asking oracles.chi from best, a count DSATUR has just refuted
    ("src/chibound/oracles.py",
     "best = oracles.chi(mask, best + 1)",
     "best = oracles.chi(mask, best)",
     "tests/test_oracles.py::test_chi_n_asks_dsatur_only_above_best"),
    # chi_n taking first fit with best + 1 colors as proof of chi <= best
    ("src/chibound/oracles.py",
     "if not (_first_fit(g, best, mask)",
     "if not (_first_fit(g, best + 1, mask)",
     "tests/test_oracles.py::"
     "test_chi_n_matches_inclusion_exclusion_over_unpivoted_sets"),
    # canonical_code leaving its search's closure in a reference cycle
    ("src/chibound/kernels.py",
     "    del search  # the closure holds itself: free it now, not at a "
     "collection\n",
     "",
     "tests/test_kernels.py::test_recursive_searches_leave_no_garbage"),
    # the enumerate source refusing n_max = 1
    ("src/chibound/harness.py",
     "1 <= v <= ENUM_CAP",
     "1 < v <= ENUM_CAP",
     "tests/test_harness.py::test_enumerate_takes_n_max_from_one"),
    # complete() refusing K_0
    ("src/chibound/patterns.py",
     '_require(n >= 0, "complete',
     '_require(n >= 1, "complete',
     "tests/test_patterns.py::test_complete_takes_every_size_from_zero"),
    # a two-vertex edge colored 1, 1 with no search
    ("src/chibound/oracles.py",
     "colors[within.bit_length() - 1] = 2",
     "colors[within.bit_length() - 1] = 1",
     "tests/test_oracles.py::"
     "test_graph_oracles_answer_as_the_plain_oracles_in_any_order"),
    # max_clique taking a non-adjacent pair as its own clique
    ("src/chibound/oracles.py",
     "            return within\n        return low\n",
     "            return within\n        return within\n",
     "tests/test_oracles.py::"
     "test_graph_oracles_answer_as_the_plain_oracles_in_any_order"),
    # the pattern memo keyed by the pattern's name, not its graph's rows
    ("src/chibound/detect.py",
     "found, rows = host._found, pat.graph.adj",
     "found, rows = host._found, pat.name",
     "tests/test_detect.py::test_memo_answers_as_a_fresh_search_in_any_order"),
    # the fan finder run without asking whether the host is diamond-free
    ("src/chibound/detect.py",
     'elif pat.name == "fan_triangles" and embedding(host, _DIAMOND) is None:',
     'elif pat.name == "fan_triangles":',
     "tests/test_detect.py::test_memo_answers_as_a_fresh_search_in_any_order"),
    # the lift taking its layers top-down, before the rest below is colored
    ("src/chibound/color.py",
     "for depth in reversed(range(len(layers))):",
     "for depth in range(len(layers)):",
     "tests/test_color.py::test_thm5a_fan"),
    # THM5A's lift blocks of alpha colors, not alpha + 1
    ("src/chibound/color.py",
     "return mask & ~k_mask, (), alpha, alpha + 1",
     "return mask & ~k_mask, (), alpha, alpha",
     "tests/test_harness.py::test_report_fingerprints_are_pinned"),
    # the driver dropping the last partial batch (1,252 = 39 * 32 + 4)
    ("src/chibound/harness.py",
     "        raise\n    if batch:\n        yield batch\n",
     "        raise\n",
     "tests/test_harness.py::test_report_fingerprints_are_pinned"),
    # a batch's pipeline errors put in its failing graphs' places in the
    # order they were raised, stage by stage, not in source order
    ("src/chibound/harness.py",
     "    results = [None] * len(batch)\n"
     "    running = [(i, _answers(g, cfg, *resolved)) for i, g in enumerate(batch)]\n"
     "    while running:\n"
     "        waiting = []\n"
     "        for i, stages in running:\n"
     "            try:\n"
     "                next(stages)\n"
     "            except StopIteration as done:\n"
     "                results[i] = done.value\n"
     "            except Exception as exc:   # kept for the graph's place in order\n"
     "                results[i] = exc\n"
     "            else:\n"
     "                waiting.append((i, stages))\n"
     "        running = waiting\n"
     "    return results\n",
     "    results, failed = [None] * len(batch), []\n"
     "    running = [(i, _answers(g, cfg, *resolved)) for i, g in enumerate(batch)]\n"
     "    while running:\n"
     "        waiting = []\n"
     "        for i, stages in running:\n"
     "            try:\n"
     "                next(stages)\n"
     "            except StopIteration as done:\n"
     "                results[i] = done.value\n"
     "            except Exception as exc:\n"
     "                failed.append((i, exc))\n"
     "            else:\n"
     "                waiting.append((i, stages))\n"
     "        running = waiting\n"
     "    for (i, _), (_, exc) in zip(sorted(failed, key=lambda f: f[0]), failed):\n"
     "        results[i] = exc\n"
     "    return results\n",
     "tests/test_harness.py::test_pipeline_errors_mid_batch_keep_source_order"),
]


def copy_tree(dest: Path) -> None:
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_tests(tree: Path, tests) -> int:
    """pytest's exit code for the tests, run in tree on tree's own src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "base"
        copy_tree(tree)
        code = run_tests(tree, sorted({test for *_, test in MUTANTS}))
        if code != 0:
            print(f"unmutated tree: named tests exit {code}, expected 0")
            return 1
        for i, (path, old, new, test) in enumerate(MUTANTS):
            start = time.perf_counter()
            tree = Path(tmp) / f"mutant{i}"
            copy_tree(tree)
            target = tree / path
            text = target.read_text()
            if text.count(old) != 1:
                failures.append(i)
                print(f"mutant {i}: {old!r} occurs {text.count(old)} times "
                      f"in {path}")
                continue
            target.write_text(text.replace(old, new))
            code = run_tests(tree, [test])
            # 1 is pytest's "tests failed"; 2 and above are usage or
            # collection errors, which do not show that a test caught it
            verdict = "caught" if code == 1 else f"SURVIVED (exit {code})"
            if code != 1:
                failures.append(i)
            print(f"mutant {i}: {path}: {verdict} by {test} "
                  f"({time.perf_counter() - start:.1f} s)")
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
