"""Golden bytes of the CLI: every artifact, stdout, stderr and exit code.

The ops are the benchmark's cli workload (8 commands on the 5 presets,
stability with 5 samples and seed 1, and `presets --json`), plus
`stability --force` on a model outside the convergence statements and
`verify --preset sym2 --out`. Each digest is the sha256 of the exit code,
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
# distance by at most 6.2e-12, 9.4e-9 and 1.5e-11 relative)
_GOLDEN = {
    "validate.sym2": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.fit2asym": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.mut4": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.pert2": "81633c7601f7714ee64cd711248f1ad0de66bc6684890ae8b6bf7060b7b93651",
    "validate.crowd3": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "simulate.sym2": "9eb0f06fb080ece89f9668f08104de707c4e1f0f1d98e552823e2972b9e586e4",
    "simulate.fit2asym": "4dfb5795329c19e345bf1b3c6a8666a0a58aa5f5d90b2c5c1368b0f0dac37a32",
    "simulate.mut4": "62e6c836d9576eed392523ab8f44179c2eb6642e7a0b051154efc29ef85f8aaa",
    "simulate.pert2": "7a514bfe2df1d0a9dece168a5f4cffb185d20dd8e25c6219b12dac2d3f290848",
    "simulate.crowd3": "a7cf78db5f59209feb78f50b60b7d0630b4ee7639a47ea5d19f1ec736e54f193",
    "equilibrium.sym2": "97c1fdf8927ec9912facd679d97d8ec0cc9b7d927747fca6c7fd5c149fb0a55e",
    "equilibrium.fit2asym": "ef5b7c5519e2fec3f6c367f85d2013c2a00b6b950b8fb5dc5852edfd500e7106",
    "equilibrium.mut4": "0b18cbea2642cda10bda4c83c2546679bbeeb1f5cf061cf5426151af5e431d5e",
    "equilibrium.pert2": "52e0ec734913cf6e8c83b259fe45ae72fb33ef6a84e62c3ac065d6f2607faa0d",
    "equilibrium.crowd3": "e8b83aed5fa62c4484203d9855043f5e1ec4694e8666e34bc9d961d5de721666",
    "spectrum.sym2": "44fc2a7a048cd1d3ad965eb0f66ca043c04195d82ebf20535a1953b2074b2bf2",
    "spectrum.fit2asym": "7ce028267f6b106c1da8ab5e16680c0319385fd99f2d815392dc46a71bb9b67b",
    "spectrum.mut4": "46d5828a8baec3380c1f36c4012b0d2c50808bcf695c621ac66338f9349ccff8",
    "spectrum.pert2": "29049d5eca290d015f412f5c888972004bd2484782314de9634d02959ccb3b86",
    "spectrum.crowd3": "5449b494572fc6d328289c790e430fcb4928124162d1402e71698979987d2bae",
    "entropy.sym2": "eea5b5c51bd8fc80b9d725c95855b2c4d0e1eb1bf25d5295413edd2ef9006ae8",
    "entropy.fit2asym": "42799faab5eef34040b5834dda39b255b65f675aab73b69942841459a62609d1",
    "entropy.mut4": "140ff1931287ecb52e7c56baf8b55fe177f041c9be804037d8ea3660c2837e27",
    "entropy.pert2": "7d980356222b34c3367ccf791e32b31d70d14cdf789d3883b878991b83e96c4d",
    "entropy.crowd3": "58e285d93ce3565a9c2f5f996df1c6e7553de4960b4038e5ec53599b6c1c592d",
    "rates.sym2": "5001218c4e1a85ad11937b100cb379e82172ccfc7ee33b320bd07d72acc32ec8",
    "rates.fit2asym": "1d27887d068e359817c8ba893f0124ae753b3f75903c17dd7c6d3d17c1ab4bd8",
    "rates.mut4": "0c984e5fbe551cd037042ea0c17c6caa9247405b24ca26f12250b3ac1872100a",
    "rates.pert2": "4ee3ff5267f2aa3c2836418540a204f49f652c38823c5d16bad30d300b2ed0e4",
    "rates.crowd3": "dfba382bd18fbbc20eb89aab87854511e9e9705d2b66a4debb759f8a4db2287b",
    "stability.sym2": "5f3d365f1e9999137372aa66cf18fa52c86a91fdb4eaea87c2a238cbad45c593",
    "stability.fit2asym": "9a775ae4ab798410360a24768dfcb7749d1ad08ea4b8672ee02d96f8a072a890",
    "stability.mut4": "a5d58ab0fff850d09d1b38fa99dd8eed134403de44032d548ab503e16cd44f1d",
    "stability.pert2": "5ec8dd469ec7c5f9908a4506ab4edcc8e36a82c22cbe1ad14bdb390fe305aaa5",
    "stability.crowd3": "26d614a6f573fc8e76babd27796f558a10ee149b2e55d39521e38f9525b1d5f8",
    "sweep.sym2": "18f1187fb23740e7616c5796b56da49df44ea198826acbe1f78fa03093a63909",
    "sweep.fit2asym": "5adde8b34f108540ad96960e8543d92de3072be73227156f3249b0cf6a759dd2",
    "sweep.mut4": "a1ffe59a4e1cdccbac791255ef646a8451c0c18b431d36d88b7ffbc506b2abab",
    "sweep.pert2": "18f1187fb23740e7616c5796b56da49df44ea198826acbe1f78fa03093a63909",
    "sweep.crowd3": "24ec35cf4d047a97d664c3080885f2c746ab40acdad614ce3039697efce1bba8",
    "presets": "5ca0560c92012a1d1165eb71e9ca7b53e1c6a2418ae1d2de464d01b1570a5dfb",
    "stability-force.crowd3": "824b42207d4c0678b178abcbfe1012eed47d098550942ec6ba19240b20655a30",
    "verify.sym2": "d4d4f31cb3a132797cefe67da3df7a01b6c69e5b60bddc99c13327c0481e160f",
}


@pytest.mark.parametrize("op_id", list(_GOLDEN))
def test_cli_bytes_match_golden(op_id, tmp_path):
    assert _digest(_ops()[op_id], tmp_path / "out") == _GOLDEN[op_id]


def test_golden_covers_every_op():
    assert list(_GOLDEN) == list(_ops())
