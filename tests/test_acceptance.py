"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Monte Carlo checks use fixed seeds, so every run is a deterministic
reproduction.

Criterion 1 compares the quadrature scheduling gains against the published
reference table cell by cell.  The printed table is kept verbatim in
``PUBLISHED``, with one documented erratum in ``ERRATA``: the cell
(m=8, 10 dB) is printed 1.2464 but is 1.2452.  The erratum is checked by two
independent routes, an integration built only on scipy.special and an
arbitrary-precision closed form (``test_c01_erratum_closed_form``), and
every cell, the erratum included, is held to the same 5e-4 tolerance.
"""
import math

from scipy.integrate import quad
from scipy.special import gammainc, gammainccinv

from antsel import (
    FitStrategy,
    LinkParams,
    McRun,
    SchedulingScenario,
    SelectionConfig,
    convergence_error,
    empirical_ergodic,
    ergodic_bounds,
    ergodic_capacity,
    mean_selection_gain,
    mimo_ergodic,
    outage_capacity,
    outage_probability,
    sample_selection_gain,
    scheduling_gain,
    selection_gain_variance,
)
from antsel.oracle import _draws

RHO_DBS = (-5.0, 0.0, 5.0, 10.0)
USERS = 32

# Published 32-user scheduling-gain table (n = 1): per m, the exact gains at
# -5/0/5/10 dB followed by the 2-decimal approximations (None at m = 1).
PUBLISHED = {
    1: ((0.8084, 1.4366, 2.0183, 2.4095), None),
    2: ((0.7803, 1.2899, 1.6826, 1.8935), (0.83, 1.34, 1.67, 1.82)),
    3: ((0.7528, 1.1958, 1.5048, 1.6540), (0.78, 1.20, 1.45, 1.56)),
    4: ((0.7308, 1.1308, 1.3926, 1.5119), (0.75, 1.12, 1.33, 1.42)),
    5: ((0.7131, 1.0826, 1.3139, 1.4155), (0.72, 1.06, 1.25, 1.33)),
    6: ((0.6984, 1.0449, 1.2548, 1.3445), (0.70, 1.02, 1.20, 1.27)),
    7: ((0.6861, 1.0144, 1.2082, 1.2895), (0.69, 0.99, 1.15, 1.21)),
    8: ((0.6754, 0.9890, 1.1702, 1.2464), (0.67, 0.96, 1.11, 1.17)),
    9: ((0.6661, 0.9673, 1.1384, 1.2084), (0.66, 0.94, 1.09, 1.14)),
    10: ((0.6578, 0.9485, 1.1113, 1.1772), (0.65, 0.92, 1.06, 1.11)),
    11: ((0.6504, 0.9321, 1.0877, 1.1502), (0.65, 0.90, 1.04, 1.09)),
    12: ((0.6438, 0.9174, 1.0670, 1.1267), (0.64, 0.89, 1.02, 1.07)),
    13: ((0.6377, 0.9045, 1.0486, 1.1058), (0.63, 0.88, 1.00, 1.05)),
    14: ((0.6321, 0.8925, 1.0321, 1.0872), (0.63, 0.87, 0.99, 1.03)),
    15: ((0.6270, 0.8816, 1.0172, 1.0704), (0.62, 0.86, 0.97, 1.02)),
    16: ((0.6222, 0.8717, 1.0035, 1.0551), (0.62, 0.85, 0.96, 1.00)),
    17: ((0.6178, 0.8626, 0.9911, 1.0411), (0.61, 0.84, 0.95, 0.99)),
    18: ((0.6137, 0.8541, 0.9796, 1.0283), (0.61, 0.83, 0.94, 0.98)),
    19: ((0.6098, 0.8463, 0.9690, 1.0164), (0.60, 0.82, 0.93, 0.97)),
    20: ((0.6062, 0.8390, 0.9591, 1.0054), (0.60, 0.81, 0.92, 0.96)),
}

# Corrected exact-gain cells, (m, dB) -> value, overriding PUBLISHED, which
# stays a verbatim transcription.  (8, 10 dB) is printed 1.2464; the n = 1
# inclusion-exclusion/E1 closed form at 110 digits gives 1.24515566172396
# (test_c01_erratum_closed_form), as do this library's quadrature and the
# scipy-only independent_gain.  The column's successive differences run
# 0.0550, 0.0443, 0.0368, 0.0312 through 1.2452 but 0.0550, 0.0431, 0.0380,
# 0.0312 through 1.2464, and the same closed form puts the other 79 printed
# cells within 1.8e-4 of their true values.
ERRATA = {(8, 10.0): 1.2452}

# Approximation cells whose published 2-decimal display sits on a rounding
# boundary: the closed form gives x.xx4986, printed one hundredth higher.
ROUNDING_BOUNDARY_CELLS = {(15, 0.0), (9, 5.0)}


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def exact_gain(m: int, rho: float) -> float:
    scen = SchedulingScenario(SelectionConfig(1, m), USERS, LinkParams(rho))
    return scheduling_gain(scen, "exact")


def approx_gain(m: int, rho: float) -> float:
    scen = SchedulingScenario(SelectionConfig(1, m), USERS, LinkParams(rho))
    return scheduling_gain(scen, "approx")


def independent_gain(m: int, rho: float) -> float:
    """Scheduling gain rebuilt from scipy.special alone (no antsel code)."""

    def capacity(branches: int) -> float:
        hi = float(gammainccinv(1, 1e-13 / branches))
        val, _ = quad(
            lambda x: math.log2(1.0 + rho * x)
            * branches
            * float(gammainc(1, x)) ** (branches - 1)
            * math.exp(-x),
            0.0,
            hi,
            epsabs=1e-11,
            epsrel=1e-12,
            limit=200,
            points=[math.log(branches)] if branches > 1 else None,
        )
        return val

    return capacity(m * USERS) - capacity(m)


def test_c01_gain_table_exact_column():
    failures = []
    corrected = []
    for m, (exact_row, _) in PUBLISHED.items():
        for db, printed in zip(RHO_DBS, exact_row):
            rho = 10.0 ** (db / 10.0)
            got = exact_gain(m, rho)
            ref = ERRATA.get((m, db), printed)
            if (m, db) in ERRATA:
                # The erratum must stay justified: the printed value still
                # disagrees, and the scipy-only route agrees with the library.
                check = independent_gain(m, rho)
                assert abs(got - printed) > 5e-4, (
                    f"(m={m}, {db:+.0f}dB): computed {got:.6f} now matches the "
                    f"printed {printed:.4f}; the erratum {ref:.4f} is stale"
                )
                assert abs(check - got) <= 1e-6, (
                    f"(m={m}, {db:+.0f}dB): independent integration gives "
                    f"{check:.6f}, library {got:.6f}"
                )
                corrected.append(
                    f"(m={m}, {db:+.0f}dB) printed {printed:.4f}, corrected "
                    f"{ref:.4f}, computed {got:.6f}"
                )
            if abs(got - ref) > 5e-4:
                check = independent_gain(m, rho)
                failures.append(
                    f"(m={m}, {db:+.0f}dB): computed {got:.6f} vs published "
                    f"{ref:.4f} (independent scipy-only integration gives "
                    f"{check:.6f}, agreeing with the computed value; the "
                    "published cell appears misprinted)"
                )
    report(
        "criterion-01-gain-table-exact",
        not failures,
        "; ".join(failures)
        or "all 80 cells within 5e-4 (erratum: " + "; ".join(corrected) + ")",
    )


def closed_form_capacity(branches: int, rho, mpmath):
    """E[log2(1 + rho X)] for X the best of `branches` Exp(1) gains (n = 1).

    The survival of X is sum_{j>=1} (-1)^(j+1) C(k, j) e^(-jx), and
    int_0^inf e^(-jx) rho / (1 + rho x) dx = e^(j/rho) E1(j/rho), so no
    quadrature is involved.  Since e^a E1(a) < 1/a, the alternating binomial
    sum cancels about log10 C(k, k/2) digits (76 at k = 256), hence the
    caller's precision.
    """
    total = mpmath.mpf(0)
    for j in range(1, branches + 1):
        a = j / rho
        term = mpmath.binomial(branches, j) * mpmath.exp(a) * mpmath.e1(a)
        total += term if j % 2 else -term
    return total / mpmath.log(2)


def test_c01_erratum_closed_form():
    import mpmath
    for (m, db), corrected in ERRATA.items():
        printed = PUBLISHED[m][0][RHO_DBS.index(db)]
        with mpmath.workdps(110):
            rho = mpmath.mpf(10) ** (mpmath.mpf(db) / 10)
            value = float(
                closed_form_capacity(m * USERS, rho, mpmath)
                - closed_form_capacity(m, rho, mpmath)
            )
        lib = exact_gain(m, 10.0 ** (db / 10.0))
        report(
            "criterion-01-erratum-closed-form",
            round(value, 4) == corrected
            and abs(value - lib) <= 1e-9
            and abs(value - printed) > 5e-4,
            f"(m={m}, {db:+.0f}dB): closed form {value:.12f}, library "
            f"{lib:.12f}, erratum {corrected:.4f}, printed {printed:.4f}",
        )


def test_c02_gain_table_approx_column():
    out_of_tolerance = {}
    for m, (_, approx_row) in PUBLISHED.items():
        if approx_row is None:
            continue
        for db, ref in zip(RHO_DBS, approx_row):
            got = approx_gain(m, 10.0 ** (db / 10.0))
            if abs(got - ref) > 5e-3:
                out_of_tolerance[(m, db)] = (got, ref)
    for (m, db), (got, ref) in sorted(out_of_tolerance.items()):
        print(
            f"      reported cell (m={m}, {db:+.0f}dB): computed {got:.6f} vs "
            f"displayed {ref:.2f} (off by {abs(got - ref):.6f}; display sits "
            "on the 2-decimal rounding boundary)"
        )
    unexplained = {
        cell: vals
        for cell, vals in out_of_tolerance.items()
        if cell not in ROUNDING_BOUNDARY_CELLS or abs(vals[0] - vals[1]) > 5.1e-3
    }
    ok = not unexplained
    detail = (
        f"{76 - len(out_of_tolerance)}/76 cells within 5e-3; "
        f"{len(out_of_tolerance)} rounding-boundary cells reported individually"
    )
    if unexplained:
        detail = f"unexplained mismatches: {unexplained}"
    report("criterion-02-gain-table-approx", ok, detail)


def test_c03_approximation_gap():
    worst = 0.0
    for m in range(2, 21):
        for db in RHO_DBS:
            rho = 10.0 ** (db / 10.0)
            worst = max(worst, abs(exact_gain(m, rho) - approx_gain(m, rho)))
    report(
        "criterion-03-approximation-gap",
        worst <= 0.1,
        f"max |exact - approx| = {worst:.4f} bits (limit 0.1)",
    )


def test_c04_capacity_sandwich():
    violations = 0
    for n in (1, 2, 3):
        for m in range(1, 21):
            cfg = SelectionConfig(n, m)
            for db in RHO_DBS:
                link = LinkParams(10.0 ** (db / 10.0))
                lower, upper = ergodic_bounds(cfg, link)
                val = ergodic_capacity(cfg, link).value
                if not (lower.value - 1e-6 <= val <= upper.value + 1e-6):
                    violations += 1
    report(
        "criterion-04-capacity-sandwich",
        violations == 0,
        f"{violations} violations over 240 grid points",
    )


def test_c05_oracle_equivalence():
    worst_z = 0.0
    mc = McRun(1_000_000, 424242)
    for n in (1, 2):
        for m in (1, 5, 20):
            cfg = SelectionConfig(n, m)
            draws = _draws(cfg, mc)  # both SINRs read one sample of the configuration
            for db in (-5.0, 5.0):
                link = LinkParams(10.0 ** (db / 10.0))
                est = empirical_ergodic(cfg, link, mc, draws)
                ref = ergodic_capacity(cfg, link).value
                worst_z = max(worst_z, abs(est.value - ref) / est.error_estimate)
    report(
        "criterion-05-oracle-equivalence",
        worst_z <= 3.0,
        f"max |z| = {worst_z:.2f} over 12 grid points at 1e6 samples",
    )


def test_c06_exponential_closed_forms():
    problems = []
    for m in (1, 3, 10):
        harmonic = sum(1.0 / k for k in range(1, m + 1))
        gap = abs(mean_selection_gain(SelectionConfig(1, m)) - harmonic)
        if gap > 1e-7:
            problems.append(f"quadrature mean m={m} off by {gap:.2e}")
        s = sample_selection_gain(SelectionConfig(1, m), McRun(1_000_000, 6))
        se = math.sqrt(s.variance / s.samples)
        if abs(s.mean - harmonic) > 3.0 * se:
            problems.append(f"MC mean m={m} off by {abs(s.mean - harmonic):.2e}")

    s = sample_selection_gain(SelectionConfig(1, 100), McRun(500_000, 66))
    expected = sum(1.0 / k**2 for k in range(1, 101))
    # standard error of a sample variance from the fourth moment (Gumbel-like
    # excess kurtosis ~= 2.4, used as a conservative plug-in)
    se_var = s.variance * math.sqrt((2.0 + 2.4) / s.samples)
    if abs(s.variance - expected) > 3.0 * se_var:
        problems.append(f"MC variance m=100 off by {abs(s.variance - expected):.2e}")
    report(
        "criterion-06-closed-forms",
        not problems,
        "harmonic means and variance reproduced" if not problems else "; ".join(problems),
    )


def test_c07_convergence_rate_probes():
    problems = []
    scaled_exp = [
        convergence_error(SelectionConfig(1, m), FitStrategy.MRL, 0.0) * m
        for m in (100, 1_000, 10_000)
    ]
    ratio = max(scaled_exp) / min(scaled_exp)
    if ratio >= 3.0:
        problems.append(f"n=1 error*m varies by {ratio:.2f}")

    scaled_two = [
        convergence_error(SelectionConfig(2, m), FitStrategy.DENSITY_ROOT, 0.0)
        * math.log(m) ** 2
        for m in (100, 1_000, 10_000)
    ]
    ratio2 = max(scaled_two) / min(scaled_two)
    if ratio2 >= 3.0:
        problems.append(f"n=2 error*(ln m)^2 varies by {ratio2:.2f}")

    for m in (50, 100, 1_000):
        cfg = SelectionConfig(2, m)
        opt = convergence_error(cfg, FitStrategy.DENSITY_ROOT, 0.0)
        crude = convergence_error(cfg, FitStrategy.ASYMPTOTIC, 0.0)
        if opt >= crude:
            problems.append(f"density-root not better at m={m}")
    report(
        "criterion-07-convergence-rates",
        not problems,
        f"n=1 spread {ratio:.2f}, n=2 spread {ratio2:.2f}, optimal constants win"
        if not problems
        else "; ".join(problems),
    )


def test_c08_no_channel_hardening():
    problems = []
    # single-branch variance is exactly 1, checked as an equality; every
    # larger m must sit strictly above that floor
    base = selection_gain_variance(SelectionConfig(1, 1))
    if abs(base - 1.0) > 1e-6:
        problems.append(f"m=1 variance {base!r} not at the unit floor")
    for m in (3, 10, 32, 100, 316, 1_000, 3_162, 10_000):
        v = selection_gain_variance(SelectionConfig(1, m))
        if not v > 1.0:
            problems.append(f"variance {v!r} at m={m} not above 1")

    s = sample_selection_gain(SelectionConfig(1, 10_000), McRun(20_000, 88))
    target = math.pi**2 / 6.0
    rel = abs(s.variance - target) / target
    if rel > 0.10:
        problems.append(f"empirical variance at m=1e4 off by {rel:.1%}")
    report(
        "criterion-08-no-hardening",
        not problems,
        f"variance floor holds; empirical m=1e4 within {rel:.2%} of pi^2/6"
        if not problems
        else "; ".join(problems),
    )


def test_c09_mimo_comparison_trends():
    problems = []
    link = LinkParams(10.0**0.5)
    mc = McRun(20_000, 909)
    for m in range(2, 21):
        sel = ergodic_capacity(SelectionConfig(1, m), link).value
        mimo = mimo_ergodic(1, m, link, mc)
        if not sel > mimo.value + 3.0 * mimo.error_estimate:
            problems.append(f"selection not above open loop at m={m}")

    rhos = (10.0**-0.5, 10.0**0.5, 10.0)
    for n in (1, 2, 4):
        for m in (1, 2, 8):
            # One curve call: the three SINRs read one channel set.
            curve = mimo_ergodic(n, m, tuple(map(LinkParams, rhos)), mc)
            for rho, est in zip(rhos, curve):
                ceiling = n * math.log2(1.0 + rho)
                if est.value > ceiling + 3.0 * est.error_estimate:
                    problems.append(f"ceiling violated at n={n}, m={m}, rho={rho:.2f}")
    report(
        "criterion-09-mimo-trends",
        not problems,
        "selection above open loop for m in 2..20; log-det ceiling holds"
        if not problems
        else "; ".join(problems),
    )


def test_c10_outage_round_trip():
    worst = 0.0
    for n in (1, 2, 3):
        for m in (1, 5, 20):
            cfg = SelectionConfig(n, m)
            for db in (-5.0, 5.0):
                link = LinkParams(10.0 ** (db / 10.0))
                for p0 in (0.01, 0.1, 0.5):
                    c0 = outage_capacity(cfg, link, p0, "exact").value
                    worst = max(worst, abs(outage_probability(cfg, link, c0) - p0))
    report(
        "criterion-10-outage-round-trip",
        worst <= 1e-9,
        f"max |P_out(C_out(p0)) - p0| = {worst:.2e}",
    )
