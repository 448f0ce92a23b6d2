"""
Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s``) and pins the
stated runtime budget where one is given.  All comparisons are exact.
"""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from conftest import element_to_vector
from mobius_centers import centers as center_mod
from mobius_centers import perm as perm_mod
from mobius_centers import quotients as quotients_mod
from mobius_centers.algebra import (
    GROUP_ALGEBRA,
    NILCOXETER,
    ZERO_HECKE,
    basis_element,
    gram_matrix,
    involve,
    mul,
    trace,
)
from mobius_centers.centers import (
    center,
    conjecture_report_to_json,
    nc_center_basis,
    twisted_center,
    verify_hn_conjecture,
)
from mobius_centers.linalg import rank, span
from mobius_centers.partitions import center_dim_formula, expected_class_count, partitions
from mobius_centers.perm import evaluate, symmetric_group
from mobius_centers.quotients import (
    class_census,
    commutator_span,
    cycle_type,
    mobius_classes,
    quotient_dim,
    twisted_commutator_span,
)

PRESETS = [NILCOXETER, ZERO_HECKE, GROUP_ALGEBRA]

GOLDEN_NC_DIMS = {1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 12}
PARTITION_COUNTS = {2: 2, 3: 3, 4: 5, 5: 7, 6: 11}


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:2d}: PASS  {description}")


def clear_caches():
    perm_mod.symmetric_group.cache_clear()
    perm_mod.reduced_word.cache_clear()
    quotients_mod.twisted_commutator_span.cache_clear()
    quotients_mod.commutator_span.cache_clear()
    quotients_mod.mobius_classes.cache_clear()
    center_mod.center.cache_clear()
    center_mod.twisted_center.cache_clear()
    center_mod.dual_center_basis.cache_clear()


def three_routes(n):
    return (
        center_dim_formula(n),
        quotient_dim(n, NILCOXETER, twisted=True),
        center(n, NILCOXETER).dim,
    )


def test_criterion_01_nc3_dimension_by_all_routes():
    with criterion(1, "dim Z(NC_3) = 3 by formula, quotient rank and commutant"):
        clear_caches()
        start = time.perf_counter()
        assert three_routes(3) == (3, 3, 3)
        assert time.perf_counter() - start < 1.0


def test_criterion_02_nc6_dimension_by_all_routes():
    with criterion(2, "dim Z(NC_6) = 12 by formula, quotient rank and commutant"):
        clear_caches()
        start = time.perf_counter()
        assert three_routes(6) == (12, 12, 12)
        assert time.perf_counter() - start < 300.0


def test_criterion_03_nc_dimension_table():
    with criterion(3, "dim Z(NC_n) = 1,2,3,5,7,12 for n = 1..6"):
        for n, expected in GOLDEN_NC_DIMS.items():
            assert center_dim_formula(n) == expected
            assert center(n, NILCOXETER).dim == expected


def test_criterion_04_hecke_matches_nc():
    with criterion(4, "dim Z(H_n) = dim Z(NC_n) for n = 1..5"):
        start = time.perf_counter()
        for n in range(1, 6):
            assert center(n, ZERO_HECKE).dim == center(n, NILCOXETER).dim
        assert time.perf_counter() - start < 60.0


def test_criterion_05_nc3_basis():
    with criterion(5, "NC_3 center basis is {T_e, T_1T_2 + T_2T_1, T_max}"):
        one = Fraction(1)
        expected = [
            {evaluate((), 3): one},
            {evaluate((1, 2), 3): one, evaluate((2, 1), 3): one},
            {evaluate((1, 2, 1), 3): one},
        ]
        found = [z.terms for z in nc_center_basis(3).elements]
        assert len(found) == 3
        for terms in expected:
            assert terms in found


def test_criterion_06_trivial_multiplication():
    with criterion(6, "products of non-identity NC basis elements vanish, n = 2..5"):
        start = time.perf_counter()
        for n in range(2, 6):
            basis = nc_center_basis(n)
            unit_terms = {evaluate((), n): Fraction(1)}
            for i, zi in enumerate(basis.elements):
                for j, zj in enumerate(basis.elements):
                    if zi.terms == unit_terms or zj.terms == unit_terms:
                        continue
                    assert mul(zi, zj).is_zero()
        assert time.perf_counter() - start < 60.0


def test_criterion_07_class_census():
    with criterion(7, "NC class census matches the arrangement counts, n = 2..7"):
        for n in range(2, 7):
            census = class_census(n, NILCOXETER)
            for stats in partitions(n):
                assert census.get(stats.parts, 0) == expected_class_count(stats)
        assert class_census(6, NILCOXETER)[(4, 2)] == 2
        quotients_mod.mobius_classes.cache_clear()
        start = time.perf_counter()
        census7 = class_census(7, NILCOXETER)
        assert time.perf_counter() - start < 10.0
        for stats in partitions(7):
            assert census7.get(stats.parts, 0) == expected_class_count(stats)


def test_criterion_08_prime_class_crossings():
    with criterion(8, "the prime class has floor((n-1)/2) crossings, n = 2..7"):
        for n in range(2, 8):
            prime = [
                members
                for members in mobius_classes(n, NILCOXETER).classes
                if cycle_type(next(iter(members))) == (n,)
            ]
            assert len(prime) == 1
            expected_length = (n - 1) // 2
            assert all(w.length == expected_length for w in prime[0])


def test_criterion_09_duality_suite():
    with criterion(9, "center and twisted center match the quotient dimensions"):
        for n in range(2, 5):
            order = symmetric_group(n).order
            for params in PRESETS:
                assert center(n, params).dim == order - twisted_commutator_span(n, params).dim
                assert twisted_center(n, params).dim == order - commutator_span(n, params).dim


def test_criterion_10_frobenius_suite():
    with criterion(10, "Gram rank n! and trace(xy) = trace(y f(x)), n = 2..5"):
        for n in range(2, 6):
            order = symmetric_group(n).order
            for params in PRESETS:
                gram = gram_matrix(n, params)
                rows = [{j: c for j, c in enumerate(row) if c} for row in gram]
                assert rank(rows, order) == order
                elements = [basis_element(params, w) for w in symmetric_group(n).perms]
                if n <= 4:
                    pairs = [(x, y) for x in elements for y in elements]
                else:
                    rng = random.Random(2718)
                    pairs = [
                        (elements[rng.randrange(order)], elements[rng.randrange(order)])
                        for _ in range(10_000)
                    ]
                for x, y in pairs:
                    assert trace(mul(x, y)) == trace(mul(y, involve(x)))


def test_criterion_11_group_algebra_oracle():
    with criterion(11, "group algebra center dimension is the partition count, n = 2..6"):
        for n, expected in PARTITION_COUNTS.items():
            assert center(n, GROUP_ALGEBRA).dim == expected


def test_criterion_12_conjecture_instrument(tmp_path):
    with criterion(12, "0-Hecke dual basis exists and is unique; report archived"):
        reports_dir = Path(__file__).resolve().parent.parent / "reports"
        for n in range(2, 6):
            # existence and uniqueness: the solve raises on either failure
            report = verify_hn_conjecture(n)
            assert len(report.classes) == center_dim_formula(n)
            payload = conjecture_report_to_json(report)
            target = tmp_path / f"hecke_center_support_n{n}.json"
            target.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
            archived = reports_dir / f"hecke_center_support_n{n}.json"
            assert target.read_bytes() == archived.read_bytes()
            # no pass/fail assertion on the support findings: they are data


def test_criterion_13_generator_span_suffices():
    with criterion(13, "generator edges span the full twisted commutator space, n <= 4"):
        for n in range(1, 5):
            table = symmetric_group(n)
            for params in PRESETS:
                full = []
                for a in table.perms:
                    ta = basis_element(params, a)
                    fa = involve(ta)
                    for b in table.perms:
                        tb = basis_element(params, b)
                        diff = mul(ta, tb) - mul(tb, fa)
                        if not diff.is_zero():
                            full.append(element_to_vector(diff))
                assert span(full, table.order) == twisted_commutator_span(n, params)


def _run_cli(*argv) -> bytes:
    result = subprocess.run(
        [sys.executable, "-m", "mobius_centers", *argv],
        capture_output=True,
        check=True,
    )
    return result.stdout


def test_criterion_14_cli_determinism():
    with criterion(14, "repeated CLI runs produce byte-identical JSON"):
        configs = [
            ("classes", "--algebra", "0-hecke", "-n", "3", "--format", "json"),
            ("dim", "--algebra", "nilcoxeter", "-n", "4", "--format", "json"),
            ("conjecture", "-n", "3", "--format", "json"),
            ("basis", "--algebra", "nilcoxeter", "-n", "4", "--format", "json"),
        ]
        for config in configs:
            first = _run_cli(*config)
            second = _run_cli(*config)
            assert first == second
            json.loads(first.decode("utf-8"))
