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


# recorded before the report dataclasses became the JSON schema
_GOLDEN = {
    "validate.sym2": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.fit2asym": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.mut4": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "validate.pert2": "81633c7601f7714ee64cd711248f1ad0de66bc6684890ae8b6bf7060b7b93651",
    "validate.crowd3": "cc5197516a90f94b6c1c337281374fcb3d33192af2c7c7bbc5c1cbb474580b68",
    "simulate.sym2": "44caa8f3f0fe4aa72bd1efdaad917142601c87790a1ff986d30823ee4f37678e",
    "simulate.fit2asym": "e543d926a272f9a7abbc37198ae729443707d3683367229f57ad0ee5e0b9868f",
    "simulate.mut4": "9c23ab6d12bb479d310fecc44aa4843eb1c32d9c078827cfae5fb967fcf855ac",
    "simulate.pert2": "69bc9e6d6fc69588406808761743696741183f8afb40e9b4e74a866c6d8259f2",
    "simulate.crowd3": "0ca393663a8826499f3ee0ecc06ec2ee1075dde860bfd0a09ecc44581698389d",
    "equilibrium.sym2": "97c1fdf8927ec9912facd679d97d8ec0cc9b7d927747fca6c7fd5c149fb0a55e",
    "equilibrium.fit2asym": "ef5b7c5519e2fec3f6c367f85d2013c2a00b6b950b8fb5dc5852edfd500e7106",
    "equilibrium.mut4": "0b18cbea2642cda10bda4c83c2546679bbeeb1f5cf061cf5426151af5e431d5e",
    "equilibrium.pert2": "fd027a77c4920dfd663d4572c236552ba6d0088c8d0d44ada7ad988cdab13d8d",
    "equilibrium.crowd3": "5f3999d2081a084d76b4effea2d73893b64e49425052da32ff088b9e9f4a0eaf",
    "spectrum.sym2": "44fc2a7a048cd1d3ad965eb0f66ca043c04195d82ebf20535a1953b2074b2bf2",
    "spectrum.fit2asym": "7ce028267f6b106c1da8ab5e16680c0319385fd99f2d815392dc46a71bb9b67b",
    "spectrum.mut4": "46d5828a8baec3380c1f36c4012b0d2c50808bcf695c621ac66338f9349ccff8",
    "spectrum.pert2": "29049d5eca290d015f412f5c888972004bd2484782314de9634d02959ccb3b86",
    "spectrum.crowd3": "bc92b4cd2810352e25e4dd1d0eb91a2540610c42ece8a70f601e7dfd64ed5938",
    "entropy.sym2": "29243c8fc958db88f765ffdb8946811d90fee5d6f08fdea5ac800329fdc8e158",
    "entropy.fit2asym": "c2d4b80ba870294ad2a027bcde417677eab7ed2f03fb8083cc9f38f114f9c24e",
    "entropy.mut4": "77f2b5f7240830fbf17fe340b297085f0320bb7997e1f4df12bf76d41323f784",
    "entropy.pert2": "e887d2f8c57f2b7ced301a1cb01c5aba071bc0334e5de62bf2c0c22039f44d93",
    "entropy.crowd3": "30d9030080c3f677e4089723c21f5a3d8fcae903a6541f1e03581e3528e25062",
    "rates.sym2": "5ed0484949abb9c026d80e8f1f17340af40f89bf463e2737342cdd2291beceff",
    "rates.fit2asym": "3e0e8f04d6fce02d5465b967f08432824a4c0bd594476cf378e2951c2380f99d",
    "rates.mut4": "1dfd1abb7498846e02329c8cda05930a4dc5ae6e4f40ee042cd83bdc819e0f5d",
    "rates.pert2": "d6cd3bf7f08b5cb352157003dbea3db5629c88f07ead0ff35aa11aade79a3504",
    "rates.crowd3": "af52f97f096e1cb016882fdf39b9e610e0948ec78e786bae794382b3ebf37adb",
    "stability.sym2": "5f3d365f1e9999137372aa66cf18fa52c86a91fdb4eaea87c2a238cbad45c593",
    "stability.fit2asym": "9a775ae4ab798410360a24768dfcb7749d1ad08ea4b8672ee02d96f8a072a890",
    "stability.mut4": "a5d58ab0fff850d09d1b38fa99dd8eed134403de44032d548ab503e16cd44f1d",
    "stability.pert2": "5ec8dd469ec7c5f9908a4506ab4edcc8e36a82c22cbe1ad14bdb390fe305aaa5",
    "stability.crowd3": "26d614a6f573fc8e76babd27796f558a10ee149b2e55d39521e38f9525b1d5f8",
    "sweep.sym2": "55f14b6e177ef54e849563710305880b96d60a605fbf007ff84a1dd58782f38e",
    "sweep.fit2asym": "63571131dbff2388402165529ca42a297bffcbeef9231f521786233562228a90",
    "sweep.mut4": "af3591a9c2f92eaf6b424ea6851eeb42c83e79b13481e9712341d4cda5b5e4a7",
    "sweep.pert2": "55f14b6e177ef54e849563710305880b96d60a605fbf007ff84a1dd58782f38e",
    "sweep.crowd3": "24ec35cf4d047a97d664c3080885f2c746ab40acdad614ce3039697efce1bba8",
    "presets": "5ca0560c92012a1d1165eb71e9ca7b53e1c6a2418ae1d2de464d01b1570a5dfb",
    "stability-force.crowd3": "2ec5ac971c00dfeed32b4c44920cb6b5ea89d2b32dbcd7a9274d76f2dc918938",
    "verify.sym2": "def2902e9591a8d06fe5fb353e39c4fc1c94847145c51422869074fbc753afee",
}


@pytest.mark.parametrize("op_id", list(_GOLDEN))
def test_cli_bytes_match_golden(op_id, tmp_path):
    assert _digest(_ops()[op_id], tmp_path / "out") == _GOLDEN[op_id]


def test_golden_covers_every_op():
    assert list(_GOLDEN) == list(_ops())
