"""Planted defects that named tests must catch.

Each mutant replaces one exact snippet in a copy of ``src/``.  The snippet
must occur exactly once: a stale snippet is an error, not a skip.  The
script first runs every named test node once on the unmutated copy, where
each must pass; then, for each mutant, it runs only that mutant's nodes
with ``PYTHONPATH`` on the mutated copy, where each must fail.  Pytest does
not collect this file, since its name has no ``test_`` prefix.

    python tests/mutants.py

The exit status is 0 when every mutant is killed and the unmutated run
passes; the last line gives the kills and the total wall time.  Code that a
change writes should bring its own mutants here.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # under src/
    snippet: str  # must occur exactly once
    replacement: str
    nodes: tuple  # test node ids, relative to the repository root, that must fail
    why: str


_CLAMP = "tests/test_mechanisms.py::test_clamped_counts_equal_the_count_over_the_full_cdf"
_FULL_CDF = "tests/test_harness.py::test_sampled_indices_equal_the_full_cdf_formula"
_TYPED = "tests/test_estimators.py::test_mismatched_estimator_inputs_raise_their_typed_error"
_CHUNKS = "tests/test_harness.py::test_draws_and_rows_do_not_depend_on_the_chunk_size"
_CIP = "tests/test_cip.py::"
_EDGES = f"{_CIP}test_optimum_at_the_edges"
_MINORANT = f"{_CIP}test_optimum_call_function_is_the_greatest_convex_minorant"
_SANDWICH_CELLS = f"{_CIP}test_optimum_on_the_centralized_sandwich_cells"
_WIDTHS = f"{_CIP}test_search_pads_to_the_output_size_and_rejects_fewer_than_the_atoms"
_GOLDEN = "tests/test_golden.py::test_cli_outputs_match_the_golden_corpus"
_BAD_CHANNEL = "tests/test_core.py::test_a_matrix_whose_rows_do_not_sum_to_one_is_not_a_channel"
_NON_FINITE = "tests/test_cli.py::test_a_non_finite_domain_value_or_weight_is_rejected"

MUTANTS = (
    Mutant("oue-reads-the-histogram-reversed", "lipagg/harness.py",
           "oue_counts(self.oue, stat, rng)", "oue_counts(self.oue, stat[:, ::-1], rng)",
           ("tests/test_harness.py::"
            "test_oue_estimate_encodes_the_histogram_the_chunk_already_counted",
            "tests/test_acceptance.py::test_criterion_11_unary_encoding_baseline"),
           "each bucket's bits must be drawn from that bucket's own true count"),
    Mutant("estimate-drops-the-out-of-domain-term", "lipagg/estimators.py",
           "np.flatnonzero((ks < 0) | (lam[:, 0] <= 0.0))", "np.flatnonzero(lam[:, 0] <= 0.0)",
           ("tests/test_estimators.py::"
            "test_estimate_names_the_user_whose_output_is_off_the_channel",),
           "an observation off the channel's outputs would read the last column as its own"),
    Mutant("estimate-checks-no-channel-size", "lipagg/estimators.py",
           "enumerate([channels] if shared else channels)", "enumerate([])",
           (f"{_TYPED}[later-channel-size]", f"{_TYPED}[shape-before-unreachable]"),
           "a channel that does not fit the domain must raise DimensionMismatchError first"),
    Mutant("clamp-takes-max-for-min", "lipagg/mechanisms.py",
           "np.minimum(counts, x.reshape(-1), out=counts)",
           "np.maximum(counts, x.reshape(-1), out=counts)",
           (_CLAMP, _FULL_CDF),
           "the tail count below the draw is capped at the true value, not raised to it"),
    Mutant("clamp-counts-kept-boundaries-with-less-equal", "lipagg/mechanisms.py",
           "np.less(kept[:, None], draws, out=mask)",
           "np.less_equal(kept[:, None], draws, out=mask)",
           (_CLAMP,),
           "a draw exactly on a boundary resolves to the lower output"),
    Mutant("clamp-counts-c-prime-from-the-tails", "lipagg/mechanisms.py",
           "np.less(kept[:, None]", "np.less(bounds[:, None]",
           (_CLAMP, _FULL_CDF),
           "c' counted from the tails equals c, so no true value would ever be kept"),
    Mutant("sampler-reads-draws-user-major", "lipagg/mechanisms.py",
           "draws, mask, ones = u.reshape(-1, k)", "draws, mask, ones = u.reshape(k, -1).T",
           (_CHUNKS,),
           "a stream is read trial-major, so a chunk of trials is a prefix of the next read"),
    Mutant("fixed-values-written-at-the-first-chunk-only", "lipagg/harness.py",
           "        else:\n            ws.x_count[...] = fixed_idx",
           "        elif t0 == 0:\n            ws.x_count[...] = fixed_idx",
           (f"{_CHUNKS}[7]",),
           "a last, shorter chunk gets a workspace of its own, which must hold the values too"),
    Mutant("chunk-budget-ignores-the-population-size", "lipagg/harness.py",
           "_CHUNK_BYTES // (n * _Workspace", "_CHUNK_BYTES // (_Workspace",
           ("tests/test_harness.py::test_a_chunk_is_the_most_trials_its_byte_budget_holds",),
           "a trial's workspace holds N user-trials, so the budget divides by N"),
    Mutant("offsets-added-in-mixed-types", "lipagg/harness.py",
           "np.copyto(ws.at, values)\n        at = np.add(ws.at, ws.trial_at, out=ws.at)",
           "at = np.add(values, ws.trial_at, out=ws.at)",
           ("tests/test_harness.py::test_chunks_of_several_trials_allocate_nothing_per_chunk",),
           "a ufunc mixing the count type and intp casts through a 64 KiB buffer per call"),
    Mutant("truth-stream-re-keyed-per-chunk", "lipagg/harness.py",
           "sample_rows(truth_cdf, truth_rng,", "sample_rows(truth_cdf, _rng(config.seed, 1),",
           (_CHUNKS,),
           "every chunk must read on from one truth stream, not restart it"),
    Mutant("oue-probabilities-swapped", "lipagg/mechanisms.py",
           "np.array([[oue.keep_prob], [oue.flip_up_prob]])",
           "np.array([[oue.flip_up_prob], [oue.keep_prob]])",
           ("tests/test_mechanisms.py::test_oue_counts_match_the_binomial_moments",
            "tests/test_acceptance.py::test_criterion_11_unary_encoding_baseline"),
           "a hot bucket keeps its bit with probability 1/2 and a cold one sets it with f"),
    Mutant("stderr-scaled-by-trials-not-its-root", "lipagg/harness.py",
           "mse_stderr=spread / (n * math.sqrt(trials))", "mse_stderr=spread / (n * trials)",
           ("tests/test_harness.py::"
            "test_monte_carlo_rows_agree_with_closed_form_within_five_standard_errors",),
           "the standard error of a mean over trials shrinks as 1/sqrt(trials)"),
    Mutant("symmetric-rr-subtracts-one-flip", "lipagg/harness.py",
           "agg.local_sum(y, ws) - n * f)", "agg.local_sum(y, ws) - f)",
           ("tests/test_harness.py::test_symmetric_rr_estimate_equals_the_context_free_estimator",),
           "each of the N outputs is flipped with probability f, so the bias is N f"),
    Mutant("monte-carlo-metric-scaled", "lipagg/harness.py",
           "metric=math.sqrt(float(np.mean(errs)) / n)",
           "metric=math.sqrt(float(np.mean(errs)) / n) * (1 + 1e-10)",
           (_GOLDEN,),
           "the corpus compares Monte-Carlo rows to 1e-12 relative, so a 1e-10 change shows"),
    Mutant("closed-form-metric-one-ulp-up", "lipagg/analysis.py",
           "metric=math.sqrt(total / n)", "metric=math.nextafter(math.sqrt(total / n), math.inf)",
           (_GOLDEN, "tests/test_harness.py::test_the_three_closed_form_paths_agree_bit_for_bit"),
           "closed-form rows are compared byte for byte"),
    Mutant("eps-grid-passes-its-stop", "lipagg/cli.py",
           "math.floor((hi - lo) / inc) + 1", 'math.ceil((hi - lo) / inc + Decimal("0.5"))',
           ("tests/test_cli.py::test_eps_grid_parsing",),
           "rounding the step count up runs 0:1:0.35 at eps = 1.05"),
    Mutant("context-aware-redrawn-term-scaled", "lipagg/harness.py",
           "self.redraw * agg.prior_term", "0.999 * self.redraw * agg.prior_term",
           ("tests/test_harness.py::test_context_aware_estimate_equals_the_posterior_table_estimate",),
           "the redrawn weight meets the prior means in full"),
    Mutant("cip-tangent-points-where-s-has-no-mass", "lipagg/cip.py",
           "(svals > lo) & (svals < hi) & (prior > 0.0)", "(svals > lo) & (svals < hi)",
           (_EDGES, _MINORANT),
           "C bends only where S has mass; a tangent point of zero mass divides by p(k) = 0"),
    Mutant("cip-lower-share-drops-the-cdf-below-k1", "lipagg/cip.py",
           "(put[k1] / (k1 - lo) - below[k1])", "(put[k1] / (k1 - lo))",
           (_MINORANT, _SANDWICH_CELLS),
           "the share of p(k1) pooled on L is the chord's mass less P(S < k1), already there"),
    Mutant("cip-k1-shifted-by-one", "lipagg/cip.py",
           "k1 = kinks[np.argmin(to_lo)]", "k1 = kinks[np.argmin(to_lo)] + 1",
           (_MINORANT, _SANDWICH_CELLS),
           "the lower tangent touches C at the first argmin of P(j)/(j - L)"),
    Mutant("cip-upper-share-scales-the-tail", "lipagg/cip.py",
           "- sf[k2]) / prior[k2]", "- 0.999 * sf[k2]) / prior[k2]",
           (_MINORANT, _SANDWICH_CELLS),
           "the share of p(k2) pooled on U is the chord's mass less P(S > k2), in full"),
    Mutant("cip-two-output-mix-set-to-one", "lipagg/cip.py",
           "keep = min(max((mean_all - lo) / (mean_all - tail_mean), 0.0), 1.0)", "keep = 1.0",
           (_EDGES, _MINORANT),
           "L's cell mixes the lower tail with a flat share so that its mean is exactly L"),
    Mutant("cip-mse-as-a-difference-of-variances", "lipagg/cip.py",
           "mse=float(prior @ (used * (svals[:, None] - values) ** 2).sum(axis=1))",
           "mse=instance.variance - float((prior @ used) @ (values - instance.mean) ** 2)",
           (_SANDWICH_CELLS,),
           "Var(S) - Var(M) cancels: at N=50, p1=0.5, eps=2 the MSE is 2.0e-11 of Var(S) = 12.5"),
    Mutant("cip-chord-test-scaled", "lipagg/cip.py",
           "to_lo.min() < (hi - mu) / (hi - lo)", "to_lo.min() < 0.9 * (hi - mu) / (hi - lo)",
           (_EDGES, _MINORANT, _WIDTHS),
           "the pooled branch holds wherever the tangent from L lies below the chord to U"),
    Mutant("cip-upper-pool-at-the-last-column", "lipagg/cip.py",
           "q[k2 + 1:, top] = 1.0", "q[k2 + 1:, width - 1] = 1.0",
           (_WIDTHS,),
           "U's column follows the counts it pools above; the columns after it stay zero"),
    Mutant("channel-constructs-unchecked", "lipagg/core.py",
           "        validate_channel(self)\n", "",
           (_BAD_CHANNEL, "tests/test_core.py::test_validate_reports_the_first_bad_row",
            "tests/test_core.py::test_validate_rejects_an_entry_that_is_not_a_number_in_range",
            "tests/test_cli.py::test_audit_bad_channel_file_exit_2",
            "tests/test_cli.py::test_nan_channel_file_exit_2"),
           "a matrix whose rows are not distributions has no LIP level to audit or estimate with"),
    Mutant("oracle-split-unclipped", "lipagg/oracles.py",
           "Channel(np.clip(Q, 0.0, 1.0, out=Q))", "Channel(Q)",
           ("tests/test_oracles.py::test_every_split_optimum_constructs_a_channel",),
           "the NNLS re-solve can leave an entry of Q an ulp above 1, which is no channel"),
    Mutant("counted-sum-weighs-the-values", "lipagg/harness.py",
           "return self._cells(values, ws)", "return self._cells(values, ws, ws.kept.ravel())",
           ("tests/test_harness.py::"
            "test_oue_estimate_encodes_the_histogram_the_chunk_already_counted",
            "tests/test_harness.py::test_chunked_rows_match_a_per_trial_reference_loop"),
           "a histogram's statistic counts the values; no weight but 1 reaches the counted form"),
    Mutant("domain-takes-non-finite-values", "lipagg/core.py",
           '        if not np.isfinite(self.values).all():\n'
           '            raise ValueError("domain values must be finite")\n', "",
           (f"{_NON_FINITE}[inf-domain-value]", f"{_NON_FINITE}[inf-in-population-file]",
            f"{_NON_FINITE}[inf-in-population-file-curve]", f"{_NON_FINITE}[domain-inf]",
            f"{_NON_FINITE}[domain-nan]"),
           "an infinite or NaN domain value turns every sum over the users into inf or nan"),
)


def _outcomes(src: Path, nodes) -> dict:
    """Run ``nodes`` against the package in ``src``: node id -> outcomes of
    its cases (a parametrized node id without brackets has several)."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1", COLUMNS="400")
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
                          *nodes], cwd=ROOT, env=env, capture_output=True, text=True).stdout
    seen = {}
    for line in out.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASSED", "FAILED", "ERROR"):
            seen.setdefault(rest.split(" - ", 1)[0], []).append(status)
    return {node: [s for case, found in seen.items() for s in found
                   if case == node or case.startswith(node + "[")] for node in nodes}


def main() -> int:
    begin = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        stale = [m.name for m in MUTANTS if (src / m.file).read_text().count(m.snippet) != 1]
        if stale:
            print(f"stale snippet (must occur exactly once): {', '.join(stale)}")
            return 2
        nodes = sorted({node for m in MUTANTS for node in m.nodes})
        bad = [node for node, cases in _outcomes(src, nodes).items()
               if not cases or set(cases) != {"PASSED"}]
        if bad:
            print("the unmutated copy fails or does not run:\n  " + "\n  ".join(bad))
            return 2
        print(f"unmutated: {len(nodes)} nodes pass")
        survivors = 0
        for m in MUTANTS:
            path = src / m.file
            original = path.read_text()
            path.write_text(original.replace(m.snippet, m.replacement))
            start = time.perf_counter()
            try:
                outcomes = _outcomes(src, m.nodes)
            finally:
                path.write_text(original)
            alive = [node for node, cases in outcomes.items()
                     if not cases or set(cases) == {"PASSED"}]
            survivors += bool(alive)
            verdict = "SURVIVED" if alive else "killed"
            print(f"{verdict:9} {m.name} ({time.perf_counter() - start:.1f} s): {m.why}")
            for node in alive:
                print(f"          not failed: {node}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} killed in {time.perf_counter() - begin:.1f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
