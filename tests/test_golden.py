"""Byte-for-byte pins of the deterministic CLI outputs.

Each entry is a command line and the SHA-256 of its stdout.  The digests
were recorded before the scalar arithmetic moved to nilpotent indices,
the sss ones before the access sets shared the code's party ints, and
the verify-paper text ones before argv was parsed by the chosen
subcommand's parser alone; a refactor that keeps them keeps every exported byte.
The two verify-paper --output json digests were re-recorded when the
gauss-periods-m* records changed from rounded floats to exact Z[omega]
pairs (a, b) meaning a + b omega, their only change.
"""

import hashlib

import pytest

from cubicode.cli import main

DIGESTS = {
    "verify-paper": "43346550a6e025b2a99b05c51ebcaa8192037c1314f03db53a93620a17d18ab2",
    "verify-paper --include-slow": "cbc93ea147d92e388531b3415ee1abce9f70c0eb6aa82edbf2baf2a34758fc03",
    "verify-paper --output json": "c3e98bbd6a2929a580066fff3adedb3a1634efa35bec4194b042d521eea9cd39",
    "verify-paper --output json --include-slow": "8f80fd19174c4a478ccef4f853cb5a593f4e9799714c80f9fb32bc16fd4136bd",
    "export --format generators --m 1 --set lprime --layout interleaved": "20f7bc7b2490bc989e9d1b5bc1e705f105bea8964ef5f5dc29447444209f2f8d",
    "export --format generators --m 1 --set lprime --layout block": "cde222fc5bb3783ab23c99a1f4729962023cd13034cccca574eb89d1574a694f",
    "export --format generators --m 1 --set units --layout interleaved": "63a75c0a93e7ccd3e21818be6f139d8e3e6cc2484607e76f35f38082311850cf",
    "export --format generators --m 1 --set units --layout block": "4d94cff7b80d5ae056ec8cd63708b19cae0769ea6167914d8594e7ddebcc51de",
    "export --format generators --m 2 --set lprime --layout interleaved": "aaa2fd5b402581a09093db3292897a88ca35d6a1f57751804c4d940936cb00f6",
    "export --format generators --m 2 --set lprime --layout block": "925cef8c148bb2e9c9615f682a44faef8747203644d56c325febf28ab4b994cc",
    "export --format generators --m 2 --set units --layout interleaved": "cc60f42950a2e3b0e8a7125c9b499192e2822cd49a894765801a394cdbcfa0c6",
    "export --format generators --m 2 --set units --layout block": "f2e88b920685dca47efdf0603a49d74f36dde28049d7117b8cfcfc7593ab3dcd",
    "export --format generators --m 3 --set lprime --layout interleaved": "60190aca918933321160ca34d8f7afde948fd5cedb0ce8d5e54d404b8292ac51",
    "export --format generators --m 3 --set lprime --layout block": "2dab3a3a46231dafb599e508230fda26dd9003505fb99b616a0c8df5bc256855",
    "export --format generators --m 3 --set units --layout interleaved": "68f8e96de9eb1d9640d71ea231e435cec5d4d3632e2f3d3d87659cc62e928087",
    "export --format generators --m 3 --set units --layout block": "9d183143656f630ff42635de89fa2e16cb5c399537d8f21cdf383cfb3d6b95c4",
    "weights --method charsum --output csv --m 1 --set lprime": "b9705ca4c07001c68a413660278e887e18c61e19e4e08958566f3359688b07b9",
    "weights --method charsum --output csv --m 1 --set units": "d9776956952c0de1bdd3af4c57df94165cd845d0313764cf25612c4a1244ded9",
    "weights --method charsum --output csv --m 2 --set lprime": "58fd22f3b5f279627e6f226c1040672a2990435fd8fa4c84c323f725e13e64eb",
    "weights --method charsum --output csv --m 2 --set units": "d22aa014889c0313c5f1c37154ae3b93001dba9498dbfc83c4f92a72312e7f97",
    "weights --method enumerate --output csv --m 1 --set lprime": "b9705ca4c07001c68a413660278e887e18c61e19e4e08958566f3359688b07b9",
    "weights --method enumerate --output csv --m 1 --set units": "d9776956952c0de1bdd3af4c57df94165cd845d0313764cf25612c4a1244ded9",
    "weights --method enumerate --output csv --m 2 --set lprime": "58fd22f3b5f279627e6f226c1040672a2990435fd8fa4c84c323f725e13e64eb",
    "weights --method enumerate --output csv --m 2 --set units": "d22aa014889c0313c5f1c37154ae3b93001dba9498dbfc83c4f92a72312e7f97",
    "weights --method enumerate --output csv --m 3 --set lprime": "18886f0b3796b8071466a26e2360ec04d21cb216af919efef02e112abe1f6132",
    "weights --method enumerate --output csv --m 3 --set units": "182f67a31e6f8296c64118a58988176f18f542b7cf0b38b4d4c7f601331b7d3b",
    "export --format access --m 1 --set lprime": "1d99b47726e94060bd5388bca24a1af546bfc30c9b3b7c3ebeb99c1ee5a3e927",
    "export --format access --m 1 --set units": "f12b2be134cfa56dfff5c8f44e374947333309eb41b76623f90dd33f9363be05",
    "export --format access --m 2 --set lprime": "6ec8123b97f7b67932996ed212a3e3c122cac032eb0d7cc7023c4b8b79781ae5",
    "export --format access --m 2 --set units": "f991413c9e58f76652ee6fbe653022149d0cadd940137ed2c07f701730036adc",
    "sss --m 2 --set lprime --seed 3": "bac5c9c95a6d05c6d0e4e88bada8251e0c3466420178a4768f0bc25132d92f90",
    "sss --m 2 --set lprime --seed 3 --output json": "91f5f63442f4ddee41802f981ac73aa1a5dc0af2976b723c51a3a1e4ef5eb98c",
    "sss --m 2 --set units --seed 3": "87400a73c5c84976a890adbb123b5fea10c56d664c5774c743a0ede3d1278bf4",
    "sss --m 2 --set units --seed 3 --output json": "e60b1742a41a0980024d0b719a27dd97fb709e14d15a5e882c6e0fb07c59cfc0",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
