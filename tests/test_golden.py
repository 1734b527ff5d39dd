"""Byte-for-byte pins of the deterministic CLI outputs.

Each entry is a command line and the SHA-256 of its stdout.  The digests
were recorded before the scalar arithmetic moved to nilpotent indices,
the sss ones before the access sets shared the code's party ints, and
the verify-paper text ones before argv was parsed by the chosen
subcommand's parser alone; a refactor that keeps them keeps every exported byte.
The two verify-paper --output json digests were re-recorded when the
gauss-periods-m* records changed from rounded floats to exact Z[omega]
pairs (a, b) meaning a + b omega, their only change.

The rest were recorded while each JSON payload was still written by a
hand-kept dict, before every payload came from its result dataclass's
fields: weights --output text|json at m = 1..3; bounds --output
text|json at m = 1..5 and 9 (from m = 4 on with dual_distance null
and the "skipped" note); dual --output text|json at m = 1..3 in both
layouts; export --format csv|json at m = 1..3; and sss text and json
and export --format access on the block layout at m <= 2.  Each covers
both defining set kinds.
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
    "weights --output text --m 1 --set lprime": "a3bcc418706c148b64e9d61fe5299114a1c0c3922b666569fc8a7df806ca04a1",
    "weights --output json --m 1 --set lprime": "d2ea240260d87e351c775ec98fd4c60e86c03240026b67af47a0ffb7e8e18625",
    "weights --output text --m 1 --set units": "83ae6666b98f0abd8c0eaf98a0dd568733332c525f346a55b78720f898ebfc0a",
    "weights --output json --m 1 --set units": "c3312e6b1310d8e2e5d3d4b4e9abfb35ea02e174bd47f337723424be9ffade33",
    "weights --output text --m 2 --set lprime": "4a625670b77436c528c9a43734a8f15ad49ce7d8adc5f5ca378c942484c08f68",
    "weights --output json --m 2 --set lprime": "01300d80e771b1d377988582eccdba31adcebd2dfc41fcf675a010907ac769a6",
    "weights --output text --m 2 --set units": "8f20ea6bd98ceb706cab741ea453c34c7cfa3ab89dddca2b726689c4ca3a22a2",
    "weights --output json --m 2 --set units": "6f3028bfbe0ae8c87b4fd11a731efc2240f6f03525cd3c607a0a6c83f6b32fd5",
    "weights --output text --m 3 --set lprime": "6d7e15715f029202cc90543d493e06b6317d514a711bd92e41768e7116193bb2",
    "weights --output json --m 3 --set lprime": "fd81c796ddd5a5c517cb02b68dc8ac0e10804647be55b107276444b1e8a05f66",
    "weights --output text --m 3 --set units": "c2f312098271710e4f8387abe439d8c900b3733340de0f5a5100fff7053d8595",
    "weights --output json --m 3 --set units": "737c0ba90bd6fa626055816da9d421d6112b8ca05f0bc6959d9d5fd73af250d5",
    "bounds --output text --m 1 --set lprime": "067e6dc9e750d83d72d5dc49fb304165617620e048fc4c1859bc29fa6709a69a",
    "bounds --output json --m 1 --set lprime": "ce68a554daa10b8bb7e60a21d44090127d8f45e368de68437d9767ea3a69a3d0",
    "bounds --output text --m 1 --set units": "53d5a9e09f702e56dca3e1f329b0de734ea1e4735fee3ac116ea71e1a27e4182",
    "bounds --output json --m 1 --set units": "627da8e3961f2bb67e78cb537908d5660b115fcc76e4e0667209713735a70426",
    "bounds --output text --m 2 --set lprime": "1275cde8d6769105a3731f7b5fe2e3d410848357812dc056e3157b1dd8c19247",
    "bounds --output json --m 2 --set lprime": "98e6a1a7033f9ef58d94d79f92a33e1c2e6234219b8003d9ad8eec2c6f2141e9",
    "bounds --output text --m 2 --set units": "ce4c1e22c934dbe595c7d06485849fe63305ed1e690bf364b1e8d9959a50b6a9",
    "bounds --output json --m 2 --set units": "3e72250bf48ec59148f6b122fbb2caf8827835a56a89e4226a416df189a2afa4",
    "bounds --output text --m 3 --set lprime": "1b2d56d51105ed93d6c907f01f81e596f000d3b9c17dee57fcb6769661323043",
    "bounds --output json --m 3 --set lprime": "7f60e08ca3b69108a3cbd928d80c085d0244e40564d85bf21225ee56f7add1ad",
    "bounds --output text --m 3 --set units": "10cfe66b2ec2615c18b3b9b319e8501d6675e17f181fb4c8271d4b6cccfd826e",
    "bounds --output json --m 3 --set units": "41efee2737689a622f8aa3dfb389086958dcc5315f373995cf3b334bde48bcef",
    "bounds --output text --m 4 --set lprime": "9706b5a2c6a16b3d934ec8bf66cf4ef62e06dfdf5bc4e6c7772efdd0a82a79dd",
    "bounds --output json --m 4 --set lprime": "6bebed65bd8af7f38d6f8110f7edfdc62ce6d5acea7ad4a1ec012ff24cd852f1",
    "bounds --output text --m 4 --set units": "796de50c4f8187519f8d4ed8a93be55c76711db605ff93907bae9a5aa4b78bf3",
    "bounds --output json --m 4 --set units": "f0e38bbd23e363f07a5ee884c3e13b2f27c18ad42aecb5512002db3b78e766f9",
    "bounds --output text --m 5 --set lprime": "5c486575c8b1c01b1da48d23802a9a755fcf8b6d8bcaedfee28d6c5d444fc041",
    "bounds --output json --m 5 --set lprime": "1e8782341f8e44405ceca5ba2087721fb5cc01c06fe8da90ef33642c40e606ad",
    "bounds --output text --m 5 --set units": "9fcc5cc3544796d669d6f6e1260b913e6a73fbbbaa051bc135a01dceecaf9457",
    "bounds --output json --m 5 --set units": "746b75110b6b252bfdaa961be2d2599ccfe0e8b87ef77fb4e392a5babdc8bd91",
    "bounds --output text --m 9 --set lprime": "79d28b715696df336c1cd07aca64c8671fa63c419e754dad78c9285ae5f7a47b",
    "bounds --output json --m 9 --set lprime": "ce46c88ca3586b743aeffc9b48224ab108f8675b4cf3fd7b038cc698b0ac48ec",
    "bounds --output text --m 9 --set units": "6f48743d0d465ea91755eb8b5c58abde9239c921e0e92461913d2e3a298bf3c0",
    "bounds --output json --m 9 --set units": "0043312acad3e4f84a05f8db3f753fc0ec969b2efb524fcbec1d14172667388f",
    "dual --output text --m 1 --set lprime --layout interleaved": "b96643237849f65591323afcfb3a30f0ae3949c3de76518f22f6b0f1c10700b9",
    "dual --output json --m 1 --set lprime --layout interleaved": "33ea2c7b57657ce7b60fb76f2e429cff702e56fbc275af5a0f64481116745704",
    "dual --output text --m 1 --set lprime --layout block": "4c7229707338bd012aa10bfb58d4dc3c682a97451f4906181c66a7817bc1b411",
    "dual --output json --m 1 --set lprime --layout block": "540908ee4549539518dcdb19c9bd85f23b7242d62fd9179fba5d999bbe2eb549",
    "dual --output text --m 1 --set units --layout interleaved": "b96643237849f65591323afcfb3a30f0ae3949c3de76518f22f6b0f1c10700b9",
    "dual --output json --m 1 --set units --layout interleaved": "33ea2c7b57657ce7b60fb76f2e429cff702e56fbc275af5a0f64481116745704",
    "dual --output text --m 1 --set units --layout block": "daea0596d89684c620f88a129a50045810e4a27def409e8765cec6fa7e447737",
    "dual --output json --m 1 --set units --layout block": "1f724cfef57547a34371e20ac22f68719e3044062dbd8c4d4a835354840ce8ba",
    "dual --output text --m 2 --set lprime --layout interleaved": "ea0edc7f416e07bd8211e0c1ec0be1ad6c2e833a8330a65f7c8f07bfd6ac7dad",
    "dual --output json --m 2 --set lprime --layout interleaved": "dd9bfd04cbbc426d3b3f3e4948e8b1da4804245977306a4d057d98d76271e8d3",
    "dual --output text --m 2 --set lprime --layout block": "bebd55f140cb2d789c057e4255925009289a9877151c567cc750a729d61b4d13",
    "dual --output json --m 2 --set lprime --layout block": "83eb333e7714f6a6ca00090ff180c823bb1540588e29c334c6c9c9b6c6e3ee92",
    "dual --output text --m 2 --set units --layout interleaved": "ea0edc7f416e07bd8211e0c1ec0be1ad6c2e833a8330a65f7c8f07bfd6ac7dad",
    "dual --output json --m 2 --set units --layout interleaved": "dd9bfd04cbbc426d3b3f3e4948e8b1da4804245977306a4d057d98d76271e8d3",
    "dual --output text --m 2 --set units --layout block": "dcc3bc71eec7da1c5821d4269288488f96c9bcd0ba306cfe9759bcbbcfeb44ab",
    "dual --output json --m 2 --set units --layout block": "e2ea63ec6ab7b2daff4841f074c2967e74e3641f25e3d4e54126a7b5e116647b",
    "dual --output text --m 3 --set lprime --layout interleaved": "d2f72593568b9bf135cd3de9d60c18e0f0d6a953711ffa771a62016b4ffeaf09",
    "dual --output json --m 3 --set lprime --layout interleaved": "a02f1d4070d2e60b9a63ae325ad94e2a4d73d00c734b9bcdc975dda3ef3ab197",
    "dual --output text --m 3 --set lprime --layout block": "45d23df12a61d1b6164726575177cb83eeb09fd49040ca056db56450a84029d0",
    "dual --output json --m 3 --set lprime --layout block": "be5dc02d8b907960b75e06eecb4e3a717200035aed7b8bd40d8be7e0d2e32d9c",
    "dual --output text --m 3 --set units --layout interleaved": "d2f72593568b9bf135cd3de9d60c18e0f0d6a953711ffa771a62016b4ffeaf09",
    "dual --output json --m 3 --set units --layout interleaved": "a02f1d4070d2e60b9a63ae325ad94e2a4d73d00c734b9bcdc975dda3ef3ab197",
    "dual --output text --m 3 --set units --layout block": "9003437e53d672d5c18c3dc4fb2df68be420d7199fdae29ed94a3ad8edf73536",
    "dual --output json --m 3 --set units --layout block": "7df84e5fd8b28bf4789ecb804573422f53eff43eb2de48f8afce33d240941f23",
    "export --format csv --m 1 --set lprime": "b9705ca4c07001c68a413660278e887e18c61e19e4e08958566f3359688b07b9",
    "export --format json --m 1 --set lprime": "d2ea240260d87e351c775ec98fd4c60e86c03240026b67af47a0ffb7e8e18625",
    "export --format csv --m 1 --set units": "d9776956952c0de1bdd3af4c57df94165cd845d0313764cf25612c4a1244ded9",
    "export --format json --m 1 --set units": "c3312e6b1310d8e2e5d3d4b4e9abfb35ea02e174bd47f337723424be9ffade33",
    "export --format csv --m 2 --set lprime": "58fd22f3b5f279627e6f226c1040672a2990435fd8fa4c84c323f725e13e64eb",
    "export --format json --m 2 --set lprime": "01300d80e771b1d377988582eccdba31adcebd2dfc41fcf675a010907ac769a6",
    "export --format csv --m 2 --set units": "d22aa014889c0313c5f1c37154ae3b93001dba9498dbfc83c4f92a72312e7f97",
    "export --format json --m 2 --set units": "6f3028bfbe0ae8c87b4fd11a731efc2240f6f03525cd3c607a0a6c83f6b32fd5",
    "export --format csv --m 3 --set lprime": "18886f0b3796b8071466a26e2360ec04d21cb216af919efef02e112abe1f6132",
    "export --format json --m 3 --set lprime": "fd81c796ddd5a5c517cb02b68dc8ac0e10804647be55b107276444b1e8a05f66",
    "export --format csv --m 3 --set units": "182f67a31e6f8296c64118a58988176f18f542b7cf0b38b4d4c7f601331b7d3b",
    "export --format json --m 3 --set units": "737c0ba90bd6fa626055816da9d421d6112b8ca05f0bc6959d9d5fd73af250d5",
    "export --format access --m 1 --set lprime --layout block": "019034d5959e517c7b29c5af8cbacbd3caa29c869c69ccc59f06ff34a8aa844a",
    "export --format access --m 1 --set units --layout block": "c9a00fba900b8ddafc120e68f20b4abb2f26d2110d034999008f21aaf11ba705",
    "export --format access --m 2 --set lprime --layout block": "1f714299da19562f3502b6aa9fe36d594999662b9ff9b04610a0867c08cd1ff3",
    "export --format access --m 2 --set units --layout block": "a47fa500a27aea8eb47814287042dd4adf99e390113c496d8ea8312cc6436420",
    "sss --m 1 --set lprime --layout block --seed 3": "4fba7d20964eeafb77e1d3e068a5a4e50e12f821588774df9934ffb75b749cef",
    "sss --m 1 --set lprime --layout block --seed 3 --output json": "e3841e2b4cdf9fea28822e34384c3cd695458318db99910582a8041fe954e2a2",
    "sss --m 1 --set units --layout block --seed 3": "7a78539f46a0523b8d63f32ac0c52d56352433f08053644b1d4edb8d56123808",
    "sss --m 1 --set units --layout block --seed 3 --output json": "02fc8de785e87b72922c92608f25bf72c1ea5bca6409922cda190159800f7555",
    "sss --m 2 --set lprime --layout block --seed 3": "48afa699241a3c484ca4604475be1a7a83f9b9c0adb08fd14711a2c0e9ab9195",
    "sss --m 2 --set lprime --layout block --seed 3 --output json": "83cbd538b1a8e8e352267499329d1da2d30d54d87d79597a0e515c019cccc74b",
    "sss --m 2 --set units --layout block --seed 3": "a80c8c044619be0f41c073441ecedae3a6f50201990e783d1dc5e74b1ee1a9db",
    "sss --m 2 --set units --layout block --seed 3 --output json": "382e0bea4e1d1669fa4577a00510a671fc072c44b339f583b362d6cb90a01fd5",
}


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_stdout_digest_is_pinned(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
