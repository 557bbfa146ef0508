"""Golden bytes of the CLI: every artifact, stdout, stderr and exit code.

The ops are the benchmark's cli workload (8 commands on the 5 presets,
stability with 5 samples and seed 1, and `presets --json`), plus
`stability --force` on a model outside the convergence statements,
`verify --preset sym2 --out` and the full `verify --out`. Each digest is the sha256 of the exit code,
stdout, stderr and every file the op wrote, in name order. A change to
how reports or tables are written must keep every digest.
"""
import contextlib
import hashlib
import io

import numpy as np
import pytest

from lvmut import cli
from lvmut.model import UniformLinear
from lvmut.presets import get_preset

_PRESETS = ("sym2", "fit2asym", "mut4", "pert2", "crowd3")
_COMMANDS = ("validate", "simulate", "equilibrium", "spectrum", "entropy",
             "rates", "stability", "sweep")


def _pert2_blocks(n: int) -> list[str]:
    """pert2's --amp/--w, repeated on each pair of genotypes."""
    inter = get_preset("pert2").model.interaction
    amp = np.tile(inter.amp, n // 2)
    w = np.kron(np.eye(n // 2), inter.w)
    return ["--amp", ",".join(repr(float(x)) for x in amp),
            "--w", ";".join(",".join(repr(float(x)) for x in row) for row in w)]


def _ops() -> dict[str, list[str]]:
    ops = {}
    for command in _COMMANDS:
        for preset in _PRESETS:
            argv = [command, "--preset", preset]
            if command == "entropy":
                argv += ["--kernel", "quadratic"]
            elif command == "stability":
                argv += ["--samples", "5", "--seed", "1"]
            elif command == "sweep":
                model = get_preset(preset).model
                if isinstance(model.interaction, UniformLinear):
                    argv += _pert2_blocks(model.n)
            ops[f"{command}.{preset}"] = argv
    ops["presets"] = ["presets", "--json"]
    ops["stability-force.crowd3"] = ["stability", "--preset", "crowd3", "--samples", "3",
                                     "--seed", "2", "--force"]
    ops["verify.sym2"] = ["verify", "--preset", "sym2"]
    ops["verify"] = ["verify"]
    return ops


def _digest(argv: list[str], out_dir) -> str:
    if argv[0] != "presets":
        argv = argv + ["--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    sha = hashlib.sha256(f"{code}\n".encode())
    for text in (out.getvalue(), err.getvalue()):
        sha.update(f"{len(text)}\n{text}".encode())
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            data = path.read_bytes()
            sha.update(f"{path.name}\n{len(data)}\n".encode() + data)
    return sha.hexdigest()


# recorded before the report dataclasses became the JSON schema; the
# simulate, entropy and rates entries and verify.sym2 re-recorded when
# trajectory samples began to come from the continuous extension; the
# equilibrium (crowd3, pert2), spectrum, entropy, rates and stability-force
# entries of crowd3 and sweep.mut4 re-recorded when the homotopy's anchor
# became the exact linear-part scaling (rounding-level moves); sweep.fit2asym
# and sweep.mut4 re-recorded when homotopy stages began to stop on the
# relative Newton correction (fit2asym's eps = 1e-4 row v_bar by 1.2e-14,
# within the 1e-13 stop, its l1 distance 9.3e-9 relative; the other rows by
# an ulp or two); sweep.sym2, sweep.fit2asym, sweep.mut4 and sweep.pert2
# re-recorded when each sweep row became one Newton run from the previous
# row (every row moves within the 1e-13 stop: v_bar by at most 5.3e-15
# relative on sym2 and pert2, 7.2e-14 on fit2asym and 1.1e-15 on mut4; l1
# distance by at most 6.2e-12, 9.4e-9 and 1.5e-11 relative); the simulate,
# entropy and rates entries, stability on sym2, fit2asym, mut4 and pert2,
# stability-force.crowd3 and verify.sym2 re-recorded when the stepper became
# DOP853 (trajectory samples move by at most 1.6e-8 relative, within the
# default rtol of 1e-8; rates.mut4's sup rate from -0.1199871 to -0.1200000
# against c1 = 0.12; all twelve verdicts of verify are unchanged); simulate,
# entropy and rates on sym2, fit2asym and mut4 re-recorded when the CLI
# began to sample the exact closed form for uniform models (trajectory
# samples move by at most 3.4e-9 relative, on fit2asym; with tol_used
# (0, 0) the rates fit down to the rounding floor, so fit2asym's window
# widens from [6.64, 13.28] with 84 points to [15.68, 31.28] with 196,
# mut4's from [54.4, 108.4] with 136 to [100, 200] with 251, and sym2's
# stays [25, 50] with 251); stability on sym2, fit2asym and mut4 re-recorded
# when its endpoints began to come from the closed form (they move by at
# most 1.3e-13 relative, on sym2); verify and verify.sym2 re-recorded when
# criteria 01, 05, 06, 08 and 10 began to read the closed form (one line
# moves: criterion 10's worst sandwich slack, from -1.847e-13 to
# -2.842e-14; every verdict is unchanged); simulate, entropy and rates on
# pert2 and crowd3, equilibrium on all five presets, stability.pert2,
# stability-force.crowd3, verify.sym2 and verify re-recorded when the field
# became (R+M)v - (Psi(v)/K)v (trajectory samples move by at most 9.6e-13
# relative, on crowd3; entropy columns by at most 2.6e-9 of their largest
# entry, on pert2; stability endpoints by at most 5.5e-15 relative; every
# v_bar keeps its bytes and only the field's residual moves, e.g. sym2's
# 6.5e-16 -> 8.9e-16; in verify, criterion 02's residual 6.523e-16 ->
# 8.882e-16, criterion 09's gap 3.757e-12 -> 3.764e-12 and criterion 11's
# residual 1.221e-15 -> 2.220e-16; every verdict is unchanged);
# equilibrium, spectrum, entropy and rates on pert2 re-recorded when
# equilibrium_auto began to continue a perturbed model from its base by one
# Newton run (equilibrium.json's method becomes "continuation" and its path
# empty; v_bar moves by 1.6e-15 relative, the spectrum's kernel vector by
# 1.4e-15, entropy columns by at most 1.2e-11 of their largest entry, the
# fitted rates by 7.1e-12 relative); stability on sym2, fit2asym, mut4 and
# pert2 and stability-force.crowd3 re-recorded when the report gained
# tol_used ((0, 0) on the three exact flows, whose endpoints keep their
# bytes) and the integrated runs began to derive their tolerances from tol
# (rtol 1e-9, atol 1e-11 at the default tol 1e-6, where they were 1e-10 and
# 1e-12: pert2's endpoints move by at most 6.0e-13 relative and its
# attractor by 1.6e-15, crowd3's endpoints by at most 3.5e-14 relative);
# equilibrium, spectrum, entropy and rates on pert2 and crowd3,
# stability.pert2, stability-force.crowd3, sweep.sym2, sweep.mut4 and
# sweep.pert2 re-recorded when Newton's G_s took the field's operation
# order, (R+M)v - (Psi^s(v)/K)v (v_bar moves by 5.3e-16 relative on the
# continued pert2, 7.9e-16 on crowd3's homotopy and at most 2.1e-15 on a
# sweep row, on mut4; crowd3's path residuals by at most 2.1e-14; spectrum
# and entropy columns by at most 3.8e-15 of their largest entry; fitted
# rates by at most 6.2e-11 relative; sweep l1 distances by at most 3.6e-12
# relative; stability endpoints keep their bytes and only the attractor and
# the gaps to it move; every digest of the uniform kinds, verify and
# verify.sym2 keep their bytes); simulate, entropy and rates on pert2 and
# crowd3, stability.pert2, stability-force.crowd3, verify.sym2 and verify
# re-recorded when each Runge-Kutta stage's argument became one product
# [1, h a_s] @ [v; k_0..] (trajectory samples move by at most 1.0e-12
# relative, on crowd3; entropy columns by at most 8.7e-9 of their largest
# entry, on pert2; fitted rates by at most 9.5e-10 relative, crowd3's sup
# rate; stability endpoints by at most 1.6e-14 relative; in verify only two
# gap figures move, criterion 09's 3.764e-12 -> 3.758e-12 and criterion
# 12's 1.785e-10 -> 1.784e-10; every verdict and step count is unchanged)
_GOLDEN = {
    "validate.sym2": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.fit2asym": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.mut4": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.pert2": "81633c7601f7714ee64cd711248f1ad0de66bc6684890ae8b6bf7060b7b93651",
    "validate.crowd3": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "simulate.sym2": "84ff426e492fe938bffcba72fabc116c94e445ac81380af463fb7817d1809850",
    "simulate.fit2asym": "8a6dc4f72cb564256eb32dabf991fba52b1a863b5c693e46b95f8e3f4ea1d5e4",
    "simulate.mut4": "dee53ca875fa4c8cbe37f8a2f6194757b79fdfed91fa64925696baed7435e316",
    "simulate.pert2": "e4143ae8404312c8ee02aa9aee51913e3fa9c40bcf1a425878854ef7e3dac687",
    "simulate.crowd3": "f3a7d5a08db4af52b4595b02e484dc6ad8b9a00dad475c60884d023febddfe1f",
    "equilibrium.sym2": "9145aaa4cc049a4e3e5f601d3ce26be1ba94940ee76618ec269b31f3a0fd0983",
    "equilibrium.fit2asym": "c32748b979a9b8131d0287c95c049d5a6165ab1dbbef5547a59b2e0bd3ae7d53",
    "equilibrium.mut4": "29cadc53b1ed8af3167747d8784739494dc3bda1b2127e793cd58e31ed0b7ec1",
    "equilibrium.pert2": "51e06b38682f7b9f7492cbac413dc3c63aee387455f6c178587d8c7c690c073c",
    "equilibrium.crowd3": "a94af05fd5254f791b22c88c6a97523c0d4c9387cdd2a9e46e0b85f7f8050708",
    "spectrum.sym2": "44fc2a7a048cd1d3ad965eb0f66ca043c04195d82ebf20535a1953b2074b2bf2",
    "spectrum.fit2asym": "7ce028267f6b106c1da8ab5e16680c0319385fd99f2d815392dc46a71bb9b67b",
    "spectrum.mut4": "46d5828a8baec3380c1f36c4012b0d2c50808bcf695c621ac66338f9349ccff8",
    "spectrum.pert2": "687f449e6ee2911184d7d9e262f755a644229f201c077d028adad1a605d72ac7",
    "spectrum.crowd3": "5878d8b6d23cd268df69283e8b1319592c6b076a482c33b51612727d839dcbab",
    "entropy.sym2": "7335a1cb893cb7f0330645ef4f655381fcde85ce2c73e2e06ce0699da1a9c046",
    "entropy.fit2asym": "40c00b209d4ceb2760ea0edd502d133aec1f34cd4d93a8d2bcb02f8036000295",
    "entropy.mut4": "50ca2b882b60786ce07b24a032da0ec78cce6ad49faed70c3eaf274f7429b9a1",
    "entropy.pert2": "8b57ea6a2a21a7c046942a5da114d093d6b7a35e621365473206852f29f038f8",
    "entropy.crowd3": "8c3654898f1a940d65fbd0c312b47dacfc41dd4e4e901357489456e165ec323a",
    "rates.sym2": "bf57f2228b24dcd122c50557b5a32a936e3bb1e4115af76971ff7aaa7ff1e321",
    "rates.fit2asym": "529659b991b9486cf78d29065035ddb85183268edc1decda23aa2dce4373bff0",
    "rates.mut4": "936940b0040d9a47d27f51c1ff071fbbd15dba1dd1ce550cb6a401fb0f155424",
    "rates.pert2": "db1218c6460c31394740f152285c52735c084b3715c02e9056c0fdc04ce0f1fb",
    "rates.crowd3": "c218ad26df10a0734b0301f9ed68c09cbab19a9456856056900e97bb02b334cc",
    "stability.sym2": "96e2dc42b0803218fa49cc74be3e428dc973e07e3dd67ccfd7d9777ab7eec568",
    "stability.fit2asym": "48db3191992ca5d0ae708e1d0608851661f00f5aa686b90b6aa1be8f8fecac3f",
    "stability.mut4": "a5d7f74db3dd5c716856e96a1da43595be4057a3e197e2fa3dee2488fe324c7b",
    "stability.pert2": "5d44110ae85a9a50e4f56c8cc2b64a55cbf04ec94620d69b30940c21ed84a4c1",
    "stability.crowd3": "26d614a6f573fc8e76babd27796f558a10ee149b2e55d39521e38f9525b1d5f8",
    "sweep.sym2": "11cf44367ea7ee8926094864f8ab73982b43ead0a01974d5bd372dcd1c66583f",
    "sweep.fit2asym": "5adde8b34f108540ad96960e8543d92de3072be73227156f3249b0cf6a759dd2",
    "sweep.mut4": "97fc7364b393a7b070469b862ff8721f6cb88d546ec70729d617803747bb5c33",
    "sweep.pert2": "11cf44367ea7ee8926094864f8ab73982b43ead0a01974d5bd372dcd1c66583f",
    "sweep.crowd3": "24ec35cf4d047a97d664c3080885f2c746ab40acdad614ce3039697efce1bba8",
    "presets": "5ca0560c92012a1d1165eb71e9ca7b53e1c6a2418ae1d2de464d01b1570a5dfb",
    "stability-force.crowd3": "3710f850d31dea012a8fe1d188e7cbda52e5f86780ee8f06105913f5021a9694",
    "verify.sym2": "3a50c1db5131c93c40f543a761b2cd9676962c8d41a7c15062e149d99f5256da",
    "verify": "55621c16329d7dffd2198409f0b51a2ad1eb6540f47e1db2c48659d2ba7801a0",
}


@pytest.mark.parametrize("op_id", list(_GOLDEN))
def test_cli_bytes_match_golden(op_id, tmp_path):
    assert _digest(_ops()[op_id], tmp_path / "out") == _GOLDEN[op_id]


def test_golden_covers_every_op():
    assert list(_GOLDEN) == list(_ops())
