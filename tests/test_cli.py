import json

from kpmod.cli import main


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

    def test_annihilator(self, capsys):
        rc, out = run(capsys, "annihilator", "--perm", "2,1,4,3", "-n", "4")
        assert rc == 0
        assert json.loads(out)["ok"]

    def test_demazure_compare(self, capsys):
        rc, out = run(capsys, "demazure-compare", "--code", "1,0,1,0")
        assert rc == 0
        row = json.loads(out)["rows"][0]
        assert row["kp_dim"] == 3 and row["demazure_dim"] == 2
        assert row["characters_equal"] is False and row["avoids_2143"] is False


class TestFiltrationCommands:
    def test_tensor_filtration_json(self, capsys):
        rc, out = run(capsys, "filtration", "--tensor", "0,1:0,1", "-n", "2")
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

    def test_unknown_suite_is_usage_error(self, capsys):
        rc = main(["verify", "--suite", "nope"])
        assert rc == 2


class TestProtocol:
    def test_byte_identical_reruns(self, capsys):
        _, out1 = run(capsys, "filtration", "--tensor", "1,0,1:0,1,0", "-n", "3")
        _, out2 = run(capsys, "filtration", "--tensor", "1,0,1:0,1,0", "-n", "3")
        assert out1 == out2

    def test_unknown_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_malformed_payload_exits_2(self, capsys):
        assert main(["schubert", "--code", "1,a,0"]) == 2
        assert main(["perm", "--code", "1,-1"]) == 2
        capsys.readouterr()

    def test_contradictory_n_exits_2(self, capsys):
        rc = main(["schubert", "--code", "1,0", "-n", "3"])
        assert rc == 2
