"""Mutation probe: apply one-line mutants to a copy of the repo, run their tests.

    python tools/mutants.py            # every mutant
    python tools/mutants.py classify-skips-last   # only the named ones

Each entry is (name, file, old text, new text, test expected to kill it).
The old text must occur exactly once in the file, so a stale entry fails
loudly instead of testing nothing. On the mutated copy the expected test
runs first, and the mutant is killed when it fails. If it passes, tier-1
(`-x`) runs: a mutant that tier-1 kills is reported as killed by another
test, not by its expected one, and fails the run like a survivor, since
its entry no longer names the test that guards that line. Hypothesis runs
under the `mutants` profile of tests/conftest.py, without the explain
phase. Not part of tier-1: CI runs it as a job of its own.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
S = "src/hirzebruch/"
PLAN = "test_rigidity.py::test_sweep_plan_marks_the_first_tuple_of_each_affine_class"
PRODUCT = "test_series.py::test_truncated_product_matches_the_per_degree_fraction_pair_reference"
MUTANTS = [
    ("unsorted-product-key", S + "chern.py",
     "table[index[tuple(sorted(lam1 + lam2, reverse=True))]]", "table[index[lam1 + lam2]]",
     "test_chern.py::test_arithmetic_keys_are_canonical_and_zero_terms_are_dropped"),
    ("trusted-keeps-zeros", S + "chern.py",
     "MappingProxyType({lam: v for lam, v in zip(partitions(degree), values) if v})",
     "MappingProxyType(dict(zip(partitions(degree), values)))",
     "test_chern.py::test_arithmetic_keys_are_canonical_and_zero_terms_are_dropped"),
    ("product-table-drops-last-pair", S + "chern.py",
     "tuple((tuple(i1s), tuple(i2s)) for i1s, i2s in table)",
     "tuple((tuple(i1s[:-1]), tuple(i2s[:-1])) for i1s, i2s in table)",
     "test_chern.py::test_dense_dot_matches_the_dict_reference"),
    ("product-table-no-offset", S + "chern.py", "enumerate(partitions(d1), o1)",
     "enumerate(partitions(d1))", "test_chern.py::test_graded_dot_equals_the_sum_of_products"),
    ("graded-scalar-ignored", S + "chern.py", "tuple(c * v for v in self.values)",
     "self.values", "test_chern.py::test_a_scalar_scales_every_value_from_either_side"),
    ("power-sum-sign-by-degree", S + "chern.py", "(-1) ** (m - len(lam))", "(-1) ** (m - 1)",
     "test_chern.py::test_power_sum_base_cases"),
    ("graded-poly-settable", S + "chern.py",
     "raise AttributeError(f\"GradedPoly is immutable: cannot set {name}\")",
     "object.__setattr__(self, name, value)",
     "test_chern.py::test_cached_power_sum_is_read_only"),
    ("chern-data-numbers-mutable", S + "chern.py", "return MappingProxyType({lam: v for",
     "return ({lam: v for", "test_chern.py::test_cached_cpn_chern_numbers_are_read_only"),
    ("aligned-merges-repeats", S + "chern.py", "if lam in seen:", "if False:",
     "test_chern.py::test_one_validator_refuses_malformed_input_by_both_routes[given-twice]"),
    ("classify-skips-last", S + "rigidity.py", "for k in range(H.order + 1):",
     "for k in range(H.order):", "test_rigidity.py::test_classify_reads_the_last_known_coefficient"),
    ("oriented-skips-last-odd", S + "rigidity.py", "for k in range(1, H.order + 1, 2):",
     "for k in range(1, H.order, 2):",
     "test_rigidity.py::test_classify_oriented_reads_the_last_odd_coefficient"),
    ("lemma41-one-short", S + "rigidity.py", "H.series.truncate(order + 2).coeffs",
     "H.series.truncate(order + 1).coeffs",
     "test_rigidity.py::test_lemma41_residual_is_known_to_the_order_asked"),
    ("generic-drops-sign", S + "localization.py",
     "total = total + prod if p.sign > 0 else total - prod", "total = total + prod",
     "test_localization.py::test_chern_numbers_from_fixed_points_match_localization"),
    ("witness-reads-degree-0", S + "rigidity.py", "if c and k:", "if c:",
     "test_rigidity.py::test_nonconstant_witness_is_the_first_nonzero_term_off_degree_zero"),
    ("laurent-keeps-zeros", S + "series.py", "if c), len(cs) - 1)", "if c), 0)",
     "test_series.py::test_zero_series_keeps_knowledge_horizon"),
    ("inverse-stops-at-40", S + "series.py", "dot(a[1:k + 1], out[::-1])",
     "dot(a[1:min(k, 40) + 1], out[::-1])",
     "test_catalog.py::test_coefficients_match_bernoulli_oracle"),
    ("hxy-drops-x", S + "catalog.py", "coeffs[1] = coeffs[1] + x", "coeffs[1] = coeffs[1]",
     "test_catalog.py::test_construct_matches_the_inverse_of_phi_path[todd]"),
    ("todd-table-shifted", S + "catalog.py", "_scaled(_todd_table(order), x + y, GR_ONE)",
     "_scaled(_todd_table(order + 1)[1:], x + y, GR_ONE)",
     "test_catalog.py::test_construct_matches_the_inverse_of_phi_path[todd]"),
    ("log-int-zero", S + "series.py", "_power([GR_ZERO] +", "_power([0] +",
     "test_series.py::test_log_series_has_the_q_i_zero_at_degree_zero"),
    ("log-drops-k-on-g", S + "series.py", "kq.append(k * g[k] - dot(", "kq.append(g[k] - dot(",
     "test_series.py::test_log_of_todd_head"),
    ("trusted-laurent-skips-normal-form", S + "series.py",
     "out.valuation, out.coeffs = _normal_form(valuation, tuple(cs))",
     "out.valuation, out.coeffs = valuation, tuple(cs)",
     "test_series.py::test_laurent_operations_return_trusted_coefficients"),
    ("reader-ignores-valuation", S + "series.py", "self.coeffs[k - self.valuation]",
     "self.coeffs[k]",
     "test_series.py::test_power_series_reads_compares_and_prints_as_its_laurent_form"),
    ("rsub-keeps-sign", S + "series.py", "(-self) + other", "self + other",
     "test_series.py::test_power_series_reads_compares_and_prints_as_its_laurent_form"),
    ("laurent-add-drops-low-head", S + "series.py", "lo.coeffs[:gap] + tuple(", "tuple(",
     "test_series.py::test_laurent_sum_and_difference_match_the_per_degree_reference"),
    ("laurent-add-ignores-gap", S + "series.py", "zip(lo.coeffs[gap:], hi.coeffs)",
     "zip(lo.coeffs, hi.coeffs)",
     "test_series.py::test_laurent_sum_and_difference_match_the_per_degree_reference"),
    ("dot-skips-rescale", S + "gaussian.py",
     "A = A * t + (a * c - b * e) * s\n                B = B * t + (a * e + b * c) * s",
     "A = A * t + (a * c - b * e)\n                B = B * t + (a * e + b * c)",
     "test_gaussian.py::test_dot_matches_a_fraction_pair_reference_sum"),
    ("dot-drops-imaginary-terms", S + "gaussian.py", "if not (a or b) or not (c or e):",
     "if not a or not (c or e):",
     "test_gaussian.py::test_dot_matches_a_fraction_pair_reference_sum"),
    ("graded-dot-first-pair-only", S + "chern.py", "for x, y in zip(xs, ys):",
     "for x, y in zip(xs[:1], ys[:1]):",
     "test_chern.py::test_graded_dot_equals_the_sum_of_products"),
    ("from_parts-no-gcd", S + "gaussian.py", "if g != 1:", "if False:",
     "test_gaussian.py::test_operations_match_a_fraction_pair_reference"),
    ("reconstruct-drops-last-term", S + "rigidity.py", "dot(g[:k + 1], g[k::-1])",
     "dot(g[:k], g[k::-1])",
     "test_acceptance.py::test_criterion_08_gt_equivalence_and_perturbations"),
    ("evaluate-genus-drops-first-key", S + "chern.py", "return dot(K.values, X.values)",
     "return dot(K.values[1:], X.values[1:])",
     "test_acceptance.py::test_criterion_12_cross_module_consistency"),
    ("int-product-drops-top-degree", S + "series.py", "for j in range(size - i):",
     "for j in range(size - i - 1):", PRODUCT),
    ("product-drops-cross-term-ii", S + "series.py", "z - x - y, d)", "z - x, d)", PRODUCT),
    ("product-real-branch-reads-one-side", S + "series.py",
     "if not any(ai) and not any(bi):", "if not any(ai):", PRODUCT),
    ("integer-parts-unscaled", S + "gaussian.py", "scales = [den // z._d for z in zs]",
     "scales = [1 for z in zs]",
     "test_gaussian.py::test_integer_parts_are_numerators_over_the_lcm_denominator"),
    ("pow-reads-bits-inverted", S + "gaussian.py", 'if bit == "1":', 'if bit == "0":',
     "test_gaussian.py::test_negation_and_powers_match_the_fraction_pair_reference"),
    ("scale-pole-power-one-short", S + "series.py", "c / w ** (head - k)",
     "c / w ** (head - k - 1)",
     "test_series.py::test_scale_argument_multiplies_degree_k_by_w_to_the_k"),
    ("sum-below-valuation-off-by-one", S + "localization.py", "if order < -fps.n:",
     "if order < -fps.n - 1:", "test_localization.py::test_fast_and_generic_paths_agree[-3-real]"),
    ("sweep-order-guard-one-short", S + "rigidity.py", "H.series.truncate(order + max_n)",
     "H.series.truncate(order + max_n - 1)",
     "test_rigidity.py::test_ar_check_refuses_a_short_h_before_localizing_any_tuple"),
    ("shape-ignores-translation", S + "rigidity.py", "low = min(weights)", "low = 0", PLAN),
    ("shape-too-coarse", S + "rigidity.py", "shape = tuple(sorted(w - low for w in weights))",
     "shape = (len(weights), max(weights) - low)", PLAN),
    ("class-key-drops-gcd", S + "rigidity.py", "g = math.gcd(*shape)", "g = 1", PLAN),
    ("class-key-drops-reflection", S + "rigidity.py",
     "key = min(s, tuple(s[-1] - x for x in reversed(s)))", "key = s", PLAN),
    ("class-key-merges-arities", S + "rigidity.py",
     "key = min(s, tuple(s[-1] - x for x in reversed(s)))",
     "key = min(s, tuple(s[-1] - x for x in reversed(s)))[:2]", PLAN),
    ("plan-first-per-shape", S + "rigidity.py", "first = key not in classes", "first = True", PLAN),
    ("plan-forgets-classes", S + "rigidity.py", "classes.add(key)", "pass", PLAN),
    ("plan-made-eagerly", S + "rigidity.py", "return plan()", "return iter(list(plan()))",
     "test_rigidity.py::test_sweep_plan_checks_its_arguments_on_the_call_and_draws_lazily"),
    ("rational-drops-point-scale", S + "localization.py", "scale = p.sign * (shared // wprod)",
     "scale = p.sign",
     "test_localization.py::test_every_degree_of_localization_is_the_multiplicative_sequence"),
    ("ahbr-swaps-sign-counts", S + "localization.py", "plus = sum(w > 0 for w in p.weights)",
     "plus = sum(w < 0 for w in p.weights)",
     "test_localization.py::test_ahbr_value_takes_x_per_positive_weight_and_minus_y_per_negative"),
    ("literal-takes-exponents", S + "gaussian.py", "if not _RATIONAL.fullmatch(text):", "if False:",
     "test_gaussian.py::test_parse_rejects_garbage[1e3]"),
    ("constructor-reads-through-fraction", S + "gaussian.py",
     "        return _fraction(x)\n", "        return Fraction(x)\n",
     "test_gaussian.py::test_the_constructor_reads_text_by_the_same_rule"),
    ("constructor-takes-floats", S + "gaussian.py", "if isinstance(x, (int, Fraction)):",
     "if True:", "test_gaussian.py::test_the_constructor_refuses_what_as_gaussian_refuses[float]"),
    ("literal-drops-every-space", S + "gaussian.py",
     're.sub(r" *([+-]) *", r"\\1", text.strip(" "))', 'text.replace(" ", "")',
     "test_gaussian.py::test_parse_rejects_garbage[1 2]"),
    ("series-file-reads-through-fraction", S + "series.py",
     'GaussianRational(str(entry["re"]), str(entry["im"]))',
     'GaussianRational(*map(__import__("fractions").Fraction, (entry["re"], entry["im"])))',
     "test_cli.py::test_every_reader_takes_only_digits_over_digits[series-file-1e3]"),
    ("sqrt-real-sign", S + "gaussian.py", "q if B >= 0 else -q", "q if B > 0 else -q",
     "test_cli_golden.py::test_cli_golden[classify --series todd]"),
    ("sqrt-drops-the-two", S + "gaussian.py", "_exact_isqrt(2 * (R + A))", "_exact_isqrt(R + A)",
     "test_gaussian.py::test_sqrt_matches_the_fraction_formula"),
    ("exp-divides-by-k-plus-one", S + "series.py", "* from_parts(1, 0, k))",
     "* from_parts(1, 0, k + 1))", "test_series.py::test_exp_factorials"),
    ("div-zero-check-real-only", S + "gaussian.py",
     "if not (c or e):\n            raise ZeroDivisionError",
     "if not c:\n            raise ZeroDivisionError",
     "test_catalog.py::test_closed_form_examples"),
    ("file-series-ignores-order", S + "cli.py", "series.truncate(min(order, series.order))",
     "series.truncate(series.order)", "test_cli.py::test_classify_file_honours_order"),
    ("file-series-needs-the-order-asked", S + "cli.py",
     "series.truncate(min(order, series.order))", "series.truncate(order)",
     "test_cli.py::test_expand_prints_a_file_known_below_order_two[default-order]"),
    ("hxy-x-needs-order-two", S + "catalog.py", "    if order:\n", "    if order > 1:\n",
     "test_cli.py::test_expand_below_order_two_prints_the_degrees_asked[spec-order-1]"),
    ("fixed-point-accepts-floats", S + "localization.py",
     "if any(type(w) is not int for w in self.weights):", "if False:",
     "test_cli.py::test_fixed_point_weights_and_signs_must_be_ints[float-weight]"),
    ("spec-keeps-last-repeat", S + "catalog.py", "if name in params:", "if False:",
     "test_catalog.py::test_parse_spec_rejects[dab:a=1,a=2,b=0]"),
    ("localize-work-linear-in-order", S + "cli.py", "(order + n) ** 2", "(order + n)",
     "test_cli.py::test_localize_work_is_capped_before_any_work[8-weights-order-512]"),
    ("localize-work-ignores-weight-size", S + "cli.py", " * (1 + weight.bit_length() // 16)",
     "", "test_cli.py::test_localize_work_counts_the_weight_size[301-digit-weight]"),
    ("sweep-work-largest-shape-only", S + "cli.py", "_admit(_WORK, sum(", "_admit(_WORK, max(",
     "test_cli.py::test_rigidity_sweep_work_is_capped_before_any_work[max-n-2-order-79]"),
    ("cpn-work-ignores-min", S + "cli.py", "max(weights) - min(weights)", "max(weights)",
     "test_cli.py::test_localize_work_counts_the_weight_size[301-digit-negative-weight]"),
    ("weights-capped-after-fixed-points", S + "cli.py",
     "_admit(_WORK, _cpn_work(weights, args.order), LOCALIZE_WORK)\n"
     "        fps = cpn_fixed_points(weights)",
     "fps = cpn_fixed_points(weights)\n"
     "        _admit(_WORK, _cpn_work(weights, args.order), LOCALIZE_WORK)",
     "test_cli.py::test_localize_weights_work_is_capped_before_any_fixed_point"),
    ("chern-data-capped-after-reader", S + "cli.py",
     "    if type(dimension) is int and dimension > 0:",
     "    chern_data_from_json(data)\n    if type(dimension) is int and dimension > 0:",
     "test_cli.py::test_chern_data_dimension_is_capped_before_any_partition"),
    ("admit-allows-negative", S + "cli.py", "if not 0 <= value <= cap:",
     "if not value <= cap:",
     "test_cli.py::test_localize_refuses_a_negative_order_before_any_work"),
    ("admit-refuses-the-cap", S + "cli.py", "<= cap:", "< cap:",
     "test_cli.py::test_sizes_at_the_new_caps_reach_construct[200-trials]"),
    ("help-escapes-main", S + "cli.py", "except SystemExit as exc:",
     "except KeyboardInterrupt as exc:", "test_cli.py::test_help_returns_zero_from_main[expand --help]"),
]


def pytest(tmp, *args):
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--hypothesis-profile=mutants", *args],
        cwd=tmp, env={**os.environ, "PYTHONPATH": str(Path(tmp) / "src")},
        capture_output=True, text=True)


def run(name, path, old, new, killer):
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp) / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy(ROOT / "README.md", tmp)  # tests/test_readme.py runs its tour
        target = Path(tmp) / path
        text = target.read_text()
        if text.count(old) != 1:
            return f"STALE    {name}: old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        expected = pytest(tmp, "tests/" + killer).returncode
        if expected == 1:  # pytest's exit code when a test failed
            return f"killed   {name}: by its expected test {killer}"
        if expected != 0:
            return f"ERROR    {name}: expected test {killer} did not run (pytest exit {expected})"
        proc = pytest(tmp, "-x", "tests")
    if not proc.returncode:
        return f"SURVIVED {name}: expected {killer}"
    first = next((line.split(" ", 1)[1].split(" - ")[0].removeprefix("tests/")
                  for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "-")
    return f"MISSED   {name}: killed by {first}, not by its expected test {killer}"


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {sorted(unknown)}")
    survived = 0
    for mutant in (m for m in MUTANTS if not names or m[0] in names):
        result = run(*mutant)
        survived += not result.startswith("killed")
        print(result, flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
