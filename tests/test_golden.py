# Byte-for-byte pins of the orbit-table commands. The sha256 of every
# `multiplets N` and `zeros N` output for N = 2..12 was taken from the route
# that built one orbit record per super and per additive orbit; the rows now
# built from one group pass per canonical vector must print the same bytes.

import hashlib

from circulant import cli

GOLDEN = {
    ("multiplets", 2, "json"): "0e93ac82483e89c18d2441a480395be8ea256aa12126929b0d1890deaf1c202f",
    ("multiplets", 2, "csv"): "0bf63bf7db16293fcaa3b340658f7557bbed463a1c300f33d98e8cdd16939b19",
    ("multiplets", 2, "text"): "4ef265dd4bc0e30cd1aa679a6985da2d373992141eedc03c7dcb921625d0a410",
    ("zeros", 2, "json"): "8a7b49b34008833a233ed1658c302d09679e928a3cf1cef714205006ca67bae9",
    ("zeros", 2, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 3, "json"): "818f9f0f319b6e15b3f6c64a829d657e697860e42c3ab9aec64e1c03f9234dab",
    ("multiplets", 3, "csv"): "7b3c3c6f5e5032e7155b69adde2a7754c25daa3ca8ae1af5dca811cc03c69ece",
    ("multiplets", 3, "text"): "08115943c6fc93095d4db1e0c59863c70cf8b0ab7bd4a4f4cc99de4624efa7d9",
    ("zeros", 3, "json"): "e796e981d85b44e7fa93fd37eb18cdddfb9ed0ec40b8f9e78be0b15385861214",
    ("zeros", 3, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 4, "json"): "ab4b7c2b1c9c2a817aadf56780ef8ff3b0b592defbe85ca2356a1252a93995b7",
    ("multiplets", 4, "csv"): "a2892594954a08f85dff105b923178eaf8eb3a1312ca0be2c194f1566c0b681c",
    ("multiplets", 4, "text"): "cff7399ed7f1de9c007107dc5bb1131dcddd4779095f9d394913b18816a09d75",
    ("zeros", 4, "json"): "d941a1e6572f690692c1a2a62af0e0112481a3ba6b408a47e356eba819eba387",
    ("zeros", 4, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 5, "json"): "d425a5535f6106bc3a327c4650dfade65f55ae1c1092d791ee4f69359fd1452a",
    ("multiplets", 5, "csv"): "a0ea0eb7c1cbe70fa30b283cdbf66d420d1dedeebee96751f476bdb6de4cf52f",
    ("multiplets", 5, "text"): "352e6fc9cf8c27dad1626dff8575ffd4aa3b456ba1a12c5eb24d38133e17cfed",
    ("zeros", 5, "json"): "c87af0916f835da0a8aca5ed7ab12c7269f4030dd7df48a83bad44836c1291eb",
    ("zeros", 5, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 6, "json"): "abd148b21009d069151e61fd33f985aa2f20cc33496c81235a306c63cda9e6a4",
    ("multiplets", 6, "csv"): "17475853431c055652ed61087b33f9a0421ea9707d93151bbc19e9cca4e3a2ac",
    ("multiplets", 6, "text"): "9ddd786e7c411f300543728c06326942c43e60d71a2cf9c58c4a1c829b4e7ab0",
    ("zeros", 6, "json"): "8ce7c375cb9b7ec82c577597dc561f4e4b58c6bda5781a38157c848941bc2be3",
    ("zeros", 6, "text"): "b66fdc44e778635fa550e4955b09c867bab30387ffcbdd1851777faaa9ab3a7a",
    ("multiplets", 7, "json"): "6f3fb214593b4e5e06425ed9501984b197bcffd9cf9bf4ec809b9dadb1d0ce49",
    ("multiplets", 7, "csv"): "5fcb124b56ed63c35620984d31a7808a999e6cf1cab9d8ae19d3e4998d6dd53e",
    ("multiplets", 7, "text"): "e28471f09f5de1407586ac3223ac19274e8e31fe78013c51ad920edc4aaf1d33",
    ("zeros", 7, "json"): "cf061bde01713b73025e60bbcd6808cb75d2a7629a1d07f398732371a07bc093",
    ("zeros", 7, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 8, "json"): "c568518c975feee996ef19995da439d6bb63993420bd6b85c98107a470db104d",
    ("multiplets", 8, "csv"): "ba4b44ef5880afbee4fd835085695357cb8b8cc1bde44827c04c6e441e11b9d8",
    ("multiplets", 8, "text"): "52baac6d540a8cdc29d4c816e388376d69fa28e0200145d03a6f5eccfcc0116f",
    ("zeros", 8, "json"): "54fafebf51ad6b44207acb206735d2e65d13e70ff7effbbbf047279750d54d29",
    ("zeros", 8, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 9, "json"): "700b514816bd7c3ba9ed5beb64a395eec36675b7d9514e9937bf8fa7ba91ce9a",
    ("multiplets", 9, "csv"): "2db84dd1af5cb6cd27b31e0a62975fec76995cdff2f195daa5b9c3220288bfcb",
    ("multiplets", 9, "text"): "59646e9c24fd3541ad35ffa5cb12b16d7339675c388a99bac275b5d1047f8895",
    ("zeros", 9, "json"): "8926b0d797656ae6698c3debfe14a8cd9121c228c2a62c4bf2b457e35538677a",
    ("zeros", 9, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 10, "json"): "f252799ed6c9c1af000951420d2378fab8479ca9fd620273e85cee6a2af0a270",
    ("multiplets", 10, "csv"): "4baf4f335f4eafdd712e5b28009c8b7c47c6ee8b4a712c2548ddcc79970d0954",
    ("multiplets", 10, "text"): "a0abbe31e05995d6459a1f505e2b399f3b44639d5e1402349b6bc20d3048c42c",
    ("zeros", 10, "json"): "54304f4fabbd19b039e2c90a245e5ff354250f836f403ea6758b4ed117eb4de2",
    ("zeros", 10, "text"): "ea0f84d5fe7bf0c885293bf67022a8d3712f1ee2bd3755a48ee7c0b47d229f53",
    ("multiplets", 11, "json"): "669ace8274ac7cf5612bd676ee2c732fd07e39c3231f39cd7966921b4d77b41f",
    ("multiplets", 11, "csv"): "04b6642bf6b2efe5bbb49d14c19a6c084fcfdc3d22a8415c7798da8d308bb150",
    ("multiplets", 11, "text"): "ed33720bb18dcafc4973edb823f0f0b1c8d8b258abd0caccc7b70777cf62cf23",
    ("zeros", 11, "json"): "ae124126490d1871022df014a7fc6e682ee00ab10f97bd58bcec8fdc35f8f038",
    ("zeros", 11, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 12, "json"): "956e80222c3452bee0666bc8340d8fa9b5ae44473df4b472c4d32fecb31de2f7",
    ("multiplets", 12, "csv"): "137d7398df1be6302a68e31ffd144f274fcaa170fdba05622f031c9ff5a5de85",
    ("multiplets", 12, "text"): "6168d3842b56ebcae45f42cea793585c7a250deac552bcc209818866d23025f5",
    ("zeros", 12, "json"): "975ca5a06ecb7e760ba3434a041fd501d5b7d4b21e357934ab96c191e215aa09",
    ("zeros", 12, "text"): "6563a2165e304f19c9534d12bf59ace49c97ed9bfdeeac48d03550339fab2ba0",
}


def test_orbit_outputs_match_golden_hashes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    got = {}
    for command, n, fmt in GOLDEN:
        code = cli.main([command, str(n), "--format", fmt])
        assert code == 0, (command, n, fmt)
        got[command, n, fmt] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN
