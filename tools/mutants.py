"""Run the committed mutants of the proven reductions against fast tests.

    python3 tools/mutants.py [--root DIR] [--list] [NAME ...]

Copies the checkout at DIR (default: the repository root) to a temporary
directory once, then, for each mutant (the named ones, or all of
``MUTANTS``), applies its one exact-string edit to the copy, runs its
fast tests there with pytest, and restores the file.  Every named test
runs, also after one has failed.  Prints one line per mutant, with
pytest's last line as its detail, so a mutant that names k tests and
reads ``k failed`` is killed by each of them alone:

- ``killed``: a test failed, as it should;
- ``survived``: every test passed, so no test pins the reduction the edit
  breaks (a finding: strengthen a test);
- ``anchor-missing``: the edit's string does not occur exactly once in
  its file, so the code moved and the mutant needs updating;
- ``error``: pytest could not run the tests (a test name that no longer
  exists, say).

Exits 0 when every mutant was killed, 1 otherwise.  These runs take
minutes and are not part of the test suite.  Uses only the standard
library.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: What the copy leaves out: version control and the test runs' caches.
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", ".perfbench_out", "out")


class Mutant(NamedTuple):
    """Replace ``old``, which must occur exactly once in the file at
    ``path`` (relative to the checkout), by ``new``; ``tests`` are the
    pytest arguments, node ids, of the tests expected to fail."""

    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


FIELD = "src/residuevc/field.py"
WEIL = "src/residuevc/weil.py"
SEARCH = "src/residuevc/search.py"
SHATTER = "src/residuevc/shatter.py"
MONTECARLO = "src/residuevc/montecarlo.py"
PRIMES = "src/residuevc/primes.py"
CLI = "src/residuevc/cli.py"

F = "tests/test_field.py::"
W = "tests/test_weil.py::"
S = "tests/test_search.py::"
T = "tests/test_shatter.py::"
M = "tests/test_montecarlo.py::"
C = "tests/test_cli.py::"
QUAD_TESTS = (W + "test_quads_sent_cover_every_affine_orbit",
              W + "test_quads_sent_count",
              W + "test_quad_fast_path_matches_generic")
PAIR_TESTS = (T + "test_pairs_match_the_oracle_on_every_pair",)
STRICT_PAIR_TESTS = PAIR_TESTS + (
    T + "test_strict_pairs_drop_both_translates_from_one_cell",)
SEARCH_TESTS = (S + "test_matches_naive_small_primes",
                S + "test_find_matches_oracle_at_every_size",
                S + "test_pinned_results", S + "test_pinned_work_counters")

MUTANTS = (
    # the quad check: the range of v, the triples, the excluded translates,
    # its batches and its packed words
    Mutant("quad-v-range-one-short", WEIL, "n = q + 1 - 2 * us",
           "n = q - 2 * us", QUAD_TESTS),
    Mutant("quad-first-triple-dropped", WEIL, "us, all_pairs=True)]",
           "us, all_pairs=True)][1:]", QUAD_TESTS),
    Mutant("quad-triple-mask-negated", WEIL, "us = us[canonical(",
           "us = us[~canonical(", QUAD_TESTS),
    Mutant("quad-translate-one-kept", WEIL, "ones & ~(o0 | o1 | ou)",
           "ones & ~(o0 | ou)", (W + "test_quad_check_skips_translate_one",)),
    Mutant("quad-no-u-mark", WEIL, "ones & ~(o0 | o1 | ou)",
           "ones & ~(o0 | o1)",
           (W + "test_quad_verdict_matches_strict_oracle",)),
    Mutant("quad-window-row-without-mod", WEIL,
           'np.take(table, idx[:m], out=word[:m], mode="wrap")',
           'np.take(table, idx[:m], out=word[:m], mode="clip")',
           (W + "test_quad_verdict_matches_strict_oracle",)),
    Mutant("quad-batch-rows-keep-first-triple", WEIL, "ks[m : m + n] = k[:n]",
           "ks[m : m + n] = 0",
           (W + "test_one_call_over_many_triples_matches_strict_oracle",)),
    # the quads a pair map of their own triple sends lower: t up to u
    # inclusive, and the step u - 1 of the pair (1, u) read as u
    Mutant("quad-filter-overreach", WEIL, "steps = us - 2", "steps = us - 1",
           (W + "test_every_canonical_quad_is_sent",)),
    Mutant("quad-filter-wrong-step", WEIL, "w[1] - d[0], q - 1",
           "w[0] - d[0], q - 1", (W + "test_every_canonical_quad_is_sent",)),
    Mutant("words-bit-order-reversed", WEIL, 'bitorder="little"',
           'bitorder="big"', (W + "test_words_pack_the_window_rows",)),
    Mutant("first-non-power-in-subgroup", WEIL, "C.exp_of > 0",
           "C.exp_of >= 0", (W + "test_theorem_q997",)),
    Mutant("r2-forbidden-without-0", WEIL,
           "forbidden = np.flatnonzero((e != 0) & (e != e[t]))",
           "forbidden = np.flatnonzero((e != 0) & (e != e[t]))[1:]",
           (W + "test_r2_witness_tally_is_the_strict_squares_tally",)),
    Mutant("weil-pair-level-weight", WEIL,
           "yield PolySpec((0, 1), (k1, k2)), q * (q - 1) // 2",
           "yield PolySpec((0, 1), (k1, k2)), q * (q - 1)",
           (W + "test_weil_exhaustive_levels_match_brute_force",)),
    Mutant("weil-violations-not-counted", WEIL, "violations += weight",
           "pass",
           (W + "test_weil_violations_are_counted_with_their_weights",
            "tests/test_cli.py::"
            "test_verify_counts_forced_violations_as_failures")),
    Mutant("equidistribution-violations-not-counted", WEIL,
           "violations += 1", "pass",
           (W + "test_equidistribution_violations_are_counted",)),
    # the search: the walks' roots, walk B, the orbit rule, the prune, the
    # sibling cut, each node's survivors and the witness re-check
    Mutant("walk-root-unchecked", SEARCH,
           "self.rooted = shatter_report((0, 1), T) >= 0",
           "self.rooted = True", (S + "test_strict_q5_is_one",)),
    Mutant("walk-b-dropped", SEARCH,
           "walks.append(_Walk(F, squares_table(F, dual), F.g))", "pass",
           (S + "test_zero_out_q5_needs_walk_b",) + SEARCH_TESTS),
    Mutant("testing-dimension-without-dual", SEARCH,
           "tallies = [w.tally for w in _walks(make_field(q), conv)]",
           "tallies = [w.tally for w in _walks(make_field(q), conv)][:1]",
           (S + "test_testing_dimension_matches_uncanonicalized_oracle",)),
    Mutant("canonical-ties-smaller", SEARCH, "@ weights < 0",
           "@ weights <= 0", (S + "test_orderly_walk_lemma",) + SEARCH_TESTS),
    Mutant("canonical-loosened", SEARCH, "return ~smaller.any(axis=1)",
           "return ~smaller.all(axis=1)",
           (S + "test_orderly_walk_lemma",) + SEARCH_TESTS),
    Mutant("sibling-cut-unsound", SEARCH,
           "reach = ms[:ms.shape[0] + n + 1 - size]",
           "reach = ms[:ms.shape[0] + n - size]", SEARCH_TESTS),
    Mutant("threshold-unsound", SEARCH, "need = 1 << (size - n - 1)",
           "need = 1 << (size - n)", SEARCH_TESTS),
    Mutant("node-survivors-unfiltered", SEARCH, "ms = cands[passed]",
           "ms = cands", SEARCH_TESTS),
    Mutant("witness-recheck-skipped", SEARCH,
           "if shatter_report(witness, walks[0].tally.T) < 0:", "if False:",
           (S + "test_witness_recheck_failure_raises",)),
    Mutant("ap-strict-mark-dropped", SEARCH,
           "vec[sum(int(b) << i for i, b in enumerate(T.member[q - n:]))]"
           " = True", "pass",
           (S + "test_ap_fold_agrees_with_direct_checks",
            S + "test_ap_equals_brute_prefix_scan")),
    # the pair table: its class bounds and STRICT's own translates
    Mutant("strict-pairs-skipped", SEARCH,
           "self._strict_pairs(sig, ms, part, j0, G, c, sizes, need, chunk)",
           "pass", STRICT_PAIR_TESTS + SEARCH_TESTS),
    Mutant("strict-pairs-one-drop", SEARCH,
           "drop = 1 + ((pi == pj) & (e + f == 0))", "drop = 1",
           STRICT_PAIR_TESTS),
    Mutant("pair-low-unclamped", SEARCH, "np.maximum(low, need, out=low)",
           "pass", PAIR_TESTS + SEARCH_TESTS),
    Mutant("pair-high-loosened", SEARCH, "hi = c - need",
           "hi = c - need + 1", PAIR_TESTS + SEARCH_TESTS),
    # the prime table, the field's primitive root and its translate columns
    Mutant("prime-table-stops-early", PRIMES,
           "for p in range(2, math.isqrt(_TABLE_BOUND)):",
           "for p in range(2, math.isqrt(_TABLE_BOUND) // 2):",
           (F + "test_miller_rabin_agrees_with_a_sieve",)),
    Mutant("primitive-root-unchecked", FIELD,
           "if all(pow(g, (q - 1) // p, q) != 1 for p in factors):",
           "if True:", (F + "test_primitive_root_found_on_first_read",)),
    Mutant("doubled-unreversed", FIELD, "doubled[1:q] = member[:0:-1]",
           "doubled[1:q] = member[1:]",
           (T + "test_table_columns_are_translates",)),
    # a resumed sweep: its refusal of stale rows, its cut and its plot
    Mutant("checkpoint-required-ignored", CLI, "if stale:", "if False:",
           (C + "test_resume_rejects_rows_of_another_convention",
            C + "test_exact_resume_rejects_early_exit_rows")),
    Mutant("checkpoint-cut-skipped", CLI, "os.truncate(path, keep)", "pass",
           (C + "test_resume_redoes_truncated_last_row",)),
    Mutant("plot-drops-checkpointed-rows", CLI,
           'points = [(r["q"], r[plot_key]) for r in kept]', "points = []",
           (C + "test_resumed_sweep_plots_what_a_fresh_one_does",)),
    # the tallies and the sampler
    Mutant("child-tally-sentinel-dropped", SHATTER,
           "cols[:, np.array(Y, dtype=np.int64)[:, None] - self.forbidden]"
           " = width", "pass",
           (S + "test_child_tally_children_match_oracle_two_levels",
            T + "test_child_tally_across_its_16_bit_switch")),
    Mutant("child-block-unshifted", SHATTER, "cols <<= n", "cols <<= 0",
           (S + "test_child_tally_children_match_oracle_two_levels",
            T + "test_child_tally_across_its_16_bit_switch")),
    Mutant("child-block-uint16-past-14", SHATTER, "if 3 << n >= 1 << 16:",
           "if 3 << n >= 1 << 17:",
           (T + "test_child_tally_across_its_16_bit_switch",)),
    Mutant("child-tally-sentinel-not-marked", SHATTER,
           "self.marked[dropped] = self.marked[dropped + q] = 2", "pass",
           (S + "test_child_tally_children_match_oracle_two_levels",
            W + "test_words_pack_the_window_rows")),
    Mutant("tally-offsets-not-advanced", SHATTER,
           "offsets = np.arange(0, m * bins, bins, dtype=np.intp)[:, None]",
           "offsets = np.zeros((m, 1), dtype=np.intp)",
           (T + "test_row_counts_match_oracle_row_by_row",)),
    Mutant("signatures-uint8", SHATTER,
           "doubled = T.doubled.astype(np.uint16 if n < 16 else np.int64)",
           "doubled = T.doubled.astype(np.uint8 if n < 16 else np.int64)",
           (T + "test_tallies_match_oracle_across_the_16_bit_switch",)),
    Mutant("tally-keys-past-switch", SHATTER, "if m * bins <= 1 << 16:",
           "if m * bins <= 1 << 17:",
           (T + "test_tallies_match_oracle_across_the_16_bit_switch",)),
    Mutant("prefix-windows-uint8", SHATTER,
           "w = T.doubled[q - n + 1 :].astype(np.uint16 if n < 16 else np.int64)",
           "w = T.doubled[q - n + 1 :].astype(np.uint8 if n < 16 else np.int64)",
           (T + "test_prefix_counts_match_pattern_counts",)),
    Mutant("prefix-slice-one-off", SHATTER,
           "sig += w[w.size - b - q : w.size - b] << b",
           "sig += w[w.size - b - q - 1 : w.size - b - 1] << b",
           (T + "test_prefix_counts_match_pattern_counts",)),
    Mutant("fisher-yates-no-at-k-update", MONTECARLO,
           "np.copyto(at_k[:, i + 1 :], at_i, "
           "where=np.arange(i + 1, n) == j)", "pass",
           (M + "test_fisher_yates_rows_match_scalar_rows",)),
    Mutant("estimate-table-not-rebuilt", MONTECARLO,
           "if T is None or T.q != F.q:", "if T is None:",
           (M + "test_interface_scan_is_estimate_p_at_each_point",)),
    Mutant("estimate-rows-not-advanced", MONTECARLO, "lo += len(js)",
           "lo += 0", (M + "test_interface_scan_is_estimate_p_at_each_point",)),
)


def apply(copy: Path, mutant: Mutant) -> str | None:
    """Write the mutant's edit into ``copy``; return the file's original
    text, or None when the anchor does not occur exactly once."""
    path = copy / mutant.path
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    if text.count(mutant.old) != 1:
        return None
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return text


def run_tests(copy: Path, tests: tuple[str, ...]) -> tuple[str, str]:
    """Run ``tests`` in ``copy``; the status and pytest's last line."""
    path = filter(None, [str(copy / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *tests], cwd=copy, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines() or [proc.stderr.strip()]
    status = {0: "survived", 1: "killed"}.get(proc.returncode, "error")
    return status, lines[-1] if lines else ""


def run(root: Path, mutants) -> list[tuple[str, str, str]]:
    """(name, status, detail) of each mutant, run in one copy of
    ``root``, printed as they finish."""
    results = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(root, copy, ignore=IGNORE)
        for mutant in mutants:
            start = time.perf_counter()
            original = apply(copy, mutant)
            if original is None:
                status, detail = "anchor-missing", mutant.old
            else:
                try:
                    status, detail = run_tests(copy, mutant.tests)
                finally:
                    (copy / mutant.path).write_text(original, encoding="utf-8")
            detail = f"{detail} ({time.perf_counter() - start:.1f} s)"
            print(f"{status:15s}{mutant.name}: {detail}", flush=True)
            results.append((mutant.name, status, detail))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (all)")
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--list", action="store_true",
                        help="print the mutants' names and stop")
    args = parser.parse_args(argv)
    if args.list:
        for mutant in MUTANTS:
            print(mutant.name)
        return 0
    known = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [known[name] for name in args.names] or list(MUTANTS)
    results = run(args.root, chosen)
    return 0 if all(status == "killed" for _, status, _ in results) else 1


if __name__ == "__main__":
    sys.exit(main())
