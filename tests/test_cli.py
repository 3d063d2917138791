import hashlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys

import pytest

import kpmod
from kpmod import cli, modules, permutations, verify
from kpmod.cli import main
from kpmod.verify import SUITES, run_suite


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


class TestBasicCommands:
    def test_schubert_text(self, capsys):
        rc, out = run(capsys, "schubert", "--code", "1,0,1,0", "--format", "text")
        assert rc == 0
        assert out.strip() == "x1^2 + x1*x2 + x1*x3"

    def test_schubert_from_perm(self, capsys):
        rc, out = run(capsys, "schubert", "--perm", "2,1,4,3", "-n", "4")
        assert rc == 0
        data = json.loads(out)
        assert {"exp": [2, 0, 0, 0], "coeff": 1} in data["terms"]
        assert (rc, out) == run(capsys, "schubert", "--code", "1,0,1,0")

    def test_code_and_perm_roundtrip(self, capsys):
        rc, out = run(capsys, "code", "--perm", "2,1,4,3", "-n", "4")
        assert rc == 0 and json.loads(out)["code"] == [1, 0, 1, 0]
        rc, out = run(capsys, "perm", "--code", "1,0,1,0")
        assert rc == 0 and json.loads(out)["perm"] == [2, 1, 4, 3]

    def test_transition(self, capsys):
        rc, out = run(capsys, "transition", "--perm", "2,1,4,3")
        data = json.loads(out)
        assert (data["j"], data["k"]) == (3, 4)
        assert data["v"] == [2, 1]
        assert [b["perm"] for b in data["branches"]] == [[3, 1, 2], [2, 3, 1]]

    def test_mtable(self, capsys):
        rc, out = run(capsys, "mtable", "--perm", "2,1,4,3", "-n", "4")
        data = json.loads(out)
        assert data["entries"]["1,3"] == 1
        assert [1, 3] not in data["pruned"]

    def test_kp_char_and_dim(self, capsys):
        rc, out = run(capsys, "kp-char", "--code", "1,0,1,0", "--format", "text")
        assert out.strip() == "x1^2 + x1*x2 + x1*x3"
        rc, out = run(capsys, "kp-dim", "--code", "1,0,1,0")
        assert json.loads(out)["dim"] == 3

    def test_negative_weight_is_written_with_equals(self, capsys):
        # "--code -1,0" would read -1,0 as an option and exit 2; schubert
        # exited 2 as well, as it turned the weight into a permutation
        for command in ("kp-char", "schubert"):
            rc, out = run(capsys, command, "--code=-1,0")
            assert rc == 0
            assert json.loads(out) == kpmod.schubert_poly((-1, 0)).to_json()

    @pytest.mark.parametrize("command", ["mtable", "annihilator"])
    def test_negative_weight_is_refused_where_a_permutation_is_needed(self, capsys, command):
        rc = main([command, "--code=-1,0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.startswith("error: code entries must be nonnegative: (-1, 0)\n")

    def test_expand_product(self, capsys):
        rc, out = run(capsys, "expand", "--product", "0,1:0,1")
        assert rc == 0
        assert json.loads(out)["terms"] == [
            {"nu": [1, 1], "coeff": 1},
            {"nu": [0, 2], "coeff": 1},
        ]

    def test_pairing(self, capsys):
        rc, out = run(capsys, "pairing", "--schubert", "1,0", "--mu", "1,0")
        assert json.loads(out)["value"] == 1
        rc, out = run(capsys, "pairing", "--schubert", "1,0", "--mu", "0,1")
        assert json.loads(out)["value"] == 0

    def test_cauchy(self, capsys):
        rc, out = run(capsys, "cauchy", "--mu", "0,1,0", "--nu", "1,0,0")
        assert rc == 0
        data = json.loads(out)
        assert data["lhs"] == data["rhs"] == 1

    def test_u3(self, capsys):
        rc, out = run(capsys, "u3", "--check", "presentation", "--a", "1", "--b", "1")
        assert rc == 0 and json.loads(out)["ok"]
        rc, out = run(
            capsys, "u3", "--check", "identity", "--case", "5", "--N", "1", "--M", "1"
        )
        assert rc == 0 and json.loads(out)["ok"]

    def test_u3_identity_without_case_is_usage_error(self, capsys):
        # it printed "unknown identity case None"
        rc = main(["u3", "--check", "identity", "--N", "1", "--M", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: --check identity needs --case" in captured.err

    def test_annihilator(self, capsys):
        rc, out = run(capsys, "annihilator", "--perm", "2,1,4,3", "-n", "4")
        assert rc == 0
        assert json.loads(out)["ok"]

    def test_annihilator_code_makes_no_code_call(self, capsys, monkeypatch):
        # the report is built on --code alone; its perm is computed only
        # when it is printed
        want = kpmod.annihilator_check(kpmod.perm_of((1, 0, 1, 0)), 4).to_json()

        def refused(w, n):
            raise AssertionError("code() called")

        for module in (cli, modules, permutations):
            monkeypatch.setattr(module, "code", refused)
        rc, out = run(capsys, "annihilator", "--code", "1,0,1,0")
        assert (rc, json.loads(out)) == (0, want)

    def test_demazure_compare(self, capsys):
        rc, out = run(capsys, "demazure-compare", "--code", "1,0,1,0")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row["kp_dim"] == 3 and row["demazure_dim"] == 2
        assert row["characters_equal"] is False and row["avoids_2143"] is False

    def test_demazure_compare_bound_below_one_is_usage_error(self, capsys):
        rc = main(["demazure-compare", "--upto", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "error: --upto must be at least 1, got 0" in captured.err


class TestFiltrationCommands:
    def test_tensor_filtration_json(self, capsys):
        rc, out = run(capsys, "filtration", "--tensor", "0,1:0,1")
        assert rc == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["factors"] == [
            {"nu": [0, 2], "mult": 1},
            {"nu": [1, 1], "mult": 1},
        ]

    def test_expect_ok_failure_exit(self, capsys):
        rc, out = run(capsys, "filtration", "--one-dim", "0,1", "--expect-ok")
        assert rc == 1
        data = json.loads(out)
        assert data["ok"] is False and data["witness"]["nu"] == [0, 1]

    def test_n_is_not_an_option(self, capsys):
        # -n was accepted and ignored with --kp and --one-dim
        rc = main(["filtration", "--kp", "1,0", "-n", "7"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "-n" in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            # kp(1,0)'s report was printed with exit 0, --one-dim dropped
            (["--one-dim", "0,1", "--kp", "1,0"], "argument --kp: not allowed with argument --one-dim"),
            (["--kp", "1,0", "--tensor", "0,1:0,1"], "argument --tensor: not allowed with argument --kp"),
            ([], "one of the arguments --tensor --kp --one-dim is required"),
        ],
    )
    def test_exactly_one_module(self, capsys, argv, message):
        rc = main(["filtration", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            # each built both members, then said "mixed ranks in a tensor
            # product" or "mixed variable counts"
            ["tensor-exp", "--pair", "1,0:1,0,0"],
            ["filtration", "--tensor", "1,0:1,0,0"],
            ["expand", "--product", "1,0:1,0,0"],
        ],
    )
    def test_codes_of_two_lengths_are_refused_before_building(self, capsys, monkeypatch, argv):
        def built(*args):
            raise AssertionError(f"built {args}")

        for name in ("kp_module", "schubert_poly", "tensor_experiment"):
            monkeypatch.setattr(cli, name, built)
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert (
            f"error: {argv[1]}: codes 1,0 and 1,0,0 have lengths 2 and 3; a pair needs codes of one length"
            in captured.err
        )

    def test_failure_without_expect_ok_is_reported_not_fatal(self, capsys):
        rc, out = run(capsys, "filtration", "--one-dim", "0,1")
        assert rc == 0
        assert json.loads(out)["ok"] is False

    def test_tensor_exp(self, capsys):
        rc, out = run(capsys, "tensor-exp", "--pair", "0,1:0,1")
        assert rc == 0
        data = json.loads(out)
        assert data["ok"] and data["factors_match"] and data["consistent"]

    def test_tensor_exp_n5_pair_at_default_cap(self, capsys):
        rc, out = run(capsys, "tensor-exp", "--pair", "0,0,2,1,0:0,1,1,0,0")
        assert rc == 0
        assert json.loads(out)["ok"] is True

    def test_plethysm_exp(self, capsys):
        rc, out = run(capsys, "plethysm-exp", "--sigma", "2", "--code", "0,1")
        assert rc == 0
        data = json.loads(out)
        assert data["ok"] and data["char_matches"]

    def test_plethysm_exp_size_four(self, capsys, monkeypatch):
        # kp(0,1,0) is 2-dimensional, so (2,1,1), with 3 rows, gives the zero
        # module; on the 5-dimensional kp(0,2,1,0) the image has dimension 45
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        for code, dim in [("0,1,0", 0), ("0,2,1,0", 45)]:
            rc, out = run(capsys, "plethysm-exp", "--sigma", "2,1,1", "--code", code)
            assert rc == 0
            data = json.loads(out)
            assert data["ok"] is True
            assert sum(t["coeff"] for t in data["extract"]["lhs"]["terms"]) == dim

    def test_plethysm_exp_closure_above_the_cap_exits_3(self, capsys, monkeypatch):
        # kp(0,2,1,0) has dimension 5; its image under (2,1), of dimension 40,
        # starts from 5^2 = 25 seed tuples and is refused at closure rank 40
        monkeypatch.setenv("KP_MAX_DIM", "39")
        assert main(["plethysm-exp", "--sigma", "2,1", "--code", "0,2,1,0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "error: young_symmetrizer_image of sigma (2, 1) at weight (3, 4, 2, 0): "
            "closure rank 40 exceeds the KP_MAX_DIM cap 39"
        )

    def test_plethysm_exp_exterior_power_above_the_cap_exits_3(self, capsys, monkeypatch):
        # Lambda^3 of the 35-dimensional kp(0,0,1,2,1,0) has 6,545 vectors
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        assert main(["plethysm-exp", "--sigma", "1,1,1", "--code", "0,0,1,2,1,0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "error: young_symmetrizer_image of sigma (1, 1, 1): exterior_power 3 basis size 6545 exceeds the KP_MAX_DIM cap 5000"
        )

    @pytest.mark.parametrize("sigma, code", [("12", "0,1,0"), ("11", "0,0")])
    def test_plethysm_exp_symmetrizer_above_the_cap_exits_3(self, capsys, monkeypatch, sigma, code):
        # the ambients (4,096 and 1 vectors) fit the default cap; 11! and 12!
        # symmetrizer terms do not, and are refused before any is built
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        assert main(["plethysm-exp", "--sigma", sigma, "--code", code]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            f"error: young_symmetrizer_image of sigma ({sigma},): symmetrizer terms >= 5040 exceeds the KP_MAX_DIM cap 5000"
        )


class TestVerify:
    def test_transition_suite(self, capsys):
        rc, out = run(
            capsys, "verify", "--suite", "transition-all", "--upto", "4",
            "--format", "text",
        )
        assert rc == 0
        assert "FAIL" not in out

    def test_orders_suite_seeded(self, capsys):
        rc1, out1 = run(capsys, "verify", "--suite", "orders", "--seed", "42")
        rc2, out2 = run(capsys, "verify", "--suite", "orders", "--seed", "42")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_orders_row_fails_on_an_asymmetric_compare(self, monkeypatch):
        # a compare that calls every distinct pair of a slice "less", both
        # ways round, never answers "incomparable" there: only the
        # antisymmetry check of the totality row sees it
        real = verify.compare

        def lopsided(lam, mu, order="standard"):
            c = real(lam, mu, order)
            return permutations.LESS if c == permutations.GREATER else c

        monkeypatch.setattr(verify, "compare", lopsided)
        assert {r.name: r.ok for r in run_suite("orders")} == {
            "mirror equivalence of the two orders": True,
            "degree slices are totally ordered": False,
            "order is shift-invariant": True,
        }

    def test_orders_row_fails_on_a_cyclic_compare(self, monkeypatch):
        # rock-paper-scissors on a residue mod 3 of the weight: antisymmetric
        # and total on every slice, so the pairs pass; only the triples see
        # that it is not transitive
        real = verify.compare

        def cyclic(lam, mu, order="standard"):
            c = real(lam, mu, order)
            turn = sum(i * (x - y) for i, (x, y) in enumerate(zip(lam, mu))) % 3
            if c == permutations.INCOMPARABLE or not turn:
                return c
            return permutations.LESS if turn == 1 else permutations.GREATER

        monkeypatch.setattr(verify, "compare", cyclic)
        totality = "degree slices are totally ordered"
        assert not {r.name: r.ok for r in run_suite("orders")}[totality]
        monkeypatch.setattr(verify, "_ORDER_TRIPLES", 0)
        assert {r.name: r.ok for r in run_suite("orders")}[totality]

    def test_unknown_suite_is_usage_error(self, capsys):
        rc = main(["verify", "--suite", "nope"])
        assert rc == 2

    @pytest.mark.parametrize(
        "suite, upto", [("kp-char", "0"), ("transition-all", "1"), ("orders", "1")]
    )
    def test_bound_that_checks_nothing_is_usage_error(self, capsys, suite, upto):
        rc = main(["verify", "--suite", suite, "--upto", upto])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"suite {suite!r} checks nothing at upto={upto}" in captured.err

    @pytest.mark.parametrize("upto", [2.5, "3", True])
    def test_bound_that_is_not_an_int_is_refused(self, monkeypatch, upto):
        # 2.5 and "3" failed in range or <, and True ran S_1
        monkeypatch.setattr(verify, "kp_module", lambda *args: pytest.fail("a check ran"))
        with pytest.raises(ValueError, match=re.escape(f"suite 'kp-char' upto must be an integer, got {upto!r}")):
            run_suite("kp-char", upto)

    @pytest.mark.parametrize("upto", ["11", "40"])
    def test_bound_above_the_largest_is_usage_error(self, capsys, monkeypatch, upto):
        # ran every check up to the bound, then failed on a parameter with no flag named
        def no_check(*args):
            raise AssertionError("a check ran")

        monkeypatch.setattr(verify, "sl3_presentation_check", no_check)
        monkeypatch.setattr(verify, "sl3_identity_check", no_check)
        rc = main(["verify", "--suite", "u3", "--upto", upto])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"suite 'u3' cannot check upto={upto}; it accepts upto <= 10" in captured.err

    def test_bound_on_suite_all_is_usage_error(self, capsys):
        rc = main(["verify", "--suite", "all", "--upto", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "--upto 1 needs a single suite: 'all' runs every suite" in captured.err

    def test_suite_all_output_is_pinned(self, capsys, monkeypatch):
        # the SHA-256 of this stdout is recorded in CHANGES.md; refactors keep it
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        rc, out = run(capsys, "verify", "--suite", "all")
        assert rc == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "a0242be3a0bbcad036afc77c6d97cd63241b8b22edbb8879562904692bfc3c2e"
        )

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_smallest_bound_checks_something(self, suite):
        least = SUITES[suite][1]
        with pytest.raises(ValueError, match=f"suite {suite!r} checks nothing"):
            run_suite(suite, least - 1)
        rows = run_suite(suite, least)
        assert rows and all(r.ok for r in rows)


class TestProtocol:
    def test_byte_identical_reruns(self, capsys):
        _, out1 = run(capsys, "filtration", "--tensor", "1,0,1:0,1,0")
        _, out2 = run(capsys, "filtration", "--tensor", "1,0,1:0,1,0")
        assert out1 == out2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_malformed_payload_exits_2(self, capsys):
        assert main(["schubert", "--code", "1,a,0"]) == 2
        assert main(["perm", "--code", "1,-1"]) == 2
        assert main(["expand", "--poly", "[1]"]) == 2
        assert main(["expand", "--poly", "{}"]) == 2
        fractional = '{"n":2,"terms":[{"exp":[1,0],"coeff":1.5}]}'
        assert main(["expand", "--poly", fractional]) == 2
        assert main(["pairing", "--poly", "null", "--mu", "0"]) == 2
        capsys.readouterr()

    def test_negative_variable_count_exits_2(self, capsys):
        # printed {"terms": []} and exited 0
        assert main(["expand", "--poly", '{"n": -1, "terms": []}']) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "variable count must be nonnegative, got -1" in captured.err

    def test_contradictory_n_exits_2(self, capsys):
        rc = main(["schubert", "--code", "1,0", "-n", "3"])
        assert rc == 2

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
    def test_closed_stdout_ends_kp_quietly(self):
        # `kp ... | head -n 1` printed a BrokenPipeError traceback and exited 1.
        # The m-table of w0 in S_200 is about 280 kB of text, far more than a
        # pipe holds, so kp is still writing when the reader closes
        n = 200
        perm = ",".join(map(str, range(n, 0, -1)))
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "kpmod.cli", "mtable", "--perm", perm, "-n", str(n), "--format", "text"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert first == b"m[1,2] = 0\n"
        assert proc.wait() == -signal.SIGPIPE
        assert err == b""


class TestSizeCap:
    def test_size_error_exits_3_without_usage_hint(self, capsys, monkeypatch):
        # kp(0,2,1,0) has dimension 5
        monkeypatch.setenv("KP_MAX_DIM", "4")
        kpmod.clear_caches()  # a cached module would not be rebuilt
        assert main(["kp-dim", "--code", "0,2,1,0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip() == (
            "error: kp_module(0, 2, 1, 0) at weight (2, 1, 0, 0): closure rank 5 exceeds the KP_MAX_DIM cap 4"
        )

    def test_bad_max_dim_exits_3_without_usage_hint(self, capsys, monkeypatch):
        monkeypatch.setenv("KP_MAX_DIM", "abc")
        assert main(["kp-dim", "--code", "1,0,1"]) == 3
        err = capsys.readouterr().err
        assert "KP_MAX_DIM must be a positive integer, got 'abc'" in err
        assert "--help" not in err

    def test_code_with_large_ambient_at_default_cap(self, capsys, monkeypatch):
        # its eager ambient would have 720,000 vectors; the module is a line
        monkeypatch.delenv("KP_MAX_DIM", raising=False)
        rc, out = run(capsys, "kp-dim", "--code", "5,4,3,0,0,0")
        assert rc == 0
        assert json.loads(out) == {"dim": 1}


class TestParserReuse:
    """The parser is built on the first ``main`` call and reused: each call
    must print what it prints when it runs alone."""

    # (argv, KP_MAX_DIM or None) in the order they run; later defaults
    # (--method, --expect-ok, --format) must not inherit an earlier value
    CALLS = [
        (["frobnicate"], None),
        (["schubert", "--help"], None),
        (["kp-dim", "--code", "0,2,1,0"], "4"),
        (["schubert", "--code", "1,0,1,0", "--method", "staircase", "--format", "text"], None),
        (["schubert", "--code", "1,0,1,0"], None),
        (["filtration", "--one-dim", "0,1", "--expect-ok"], None),
        (["filtration", "--one-dim", "0,1"], None),
        (["code", "--perm", "2,1"], None),
        (["perm", "--code", "1,-1"], None),
        (["kp-dim", "--code", "0,2,1,0"], None),
        (["verify", "--suite", "orders", "--upto", "3"], None),
    ]

    def call(self, capsys, monkeypatch, argv, cap):
        with monkeypatch.context() as m:
            if cap is None:
                m.delenv("KP_MAX_DIM", raising=False)
            else:
                m.setenv("KP_MAX_DIM", cap)
            kpmod.clear_caches()  # a cached module would not be rebuilt
            rc = main(list(argv))
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    def test_each_call_prints_what_it_prints_alone(self, capsys, monkeypatch):
        alone = []
        for argv, cap in self.CALLS:
            cli._build_parser.cache_clear()
            alone.append(self.call(capsys, monkeypatch, argv, cap))
        assert [rc for rc, _, _ in alone] == [2, 0, 3, 0, 0, 1, 0, 2, 2, 0, 0]
        cli._build_parser.cache_clear()
        together = [self.call(capsys, monkeypatch, argv, cap) for argv, cap in self.CALLS]
        assert cli._build_parser.cache_info().misses == 1
        assert together == alone

    def test_two_calls_build_the_parser_once(self, capsys):
        cli._build_parser.cache_clear()
        assert main(["perm", "--code", "1,0,1"]) == 0
        assert main(["perm", "--code", "0,1"]) == 0
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        assert capsys.readouterr().out == '{"perm": [2, 1, 4, 3]}\n{"perm": [1, 3, 2]}\n'

    def test_import_does_not_build_the_parser(self):
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import kpmod, kpmod.cli; print(kpmod.cli._build_parser.cache_info().currsize)"
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout
        assert out == "0\n"
