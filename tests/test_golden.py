# Byte-for-byte pins of the CLI's outputs. The sha256 of every
# `multiplets N` and `zeros N` output for N = 2..12 was taken from the route
# that built one orbit record per super and per additive orbit; the rows now
# built from one group pass per canonical vector must print the same bytes.
# `expand N` is pinned in every format, with and without --include-zeros,
# for N = 1..12, and `coeff` in both formats over every index set with
# N <= 6 and a fixed list at N = 14 and 16. Keys of multiplicity vectors
# print one character per entry, 0-9 then A, B, C, ...; the outputs with
# an entry of 10 or more (multiplets 10..12, expand 10..12 in csv and text)
# were pinned after that key format was introduced. `zeros` text prints its
# index sets the same way; only `zeros 12` has an index of 10 or more, and
# its text hash was pinned after that change.

import functools
import hashlib
import itertools

from circulant import cli, coeff_engine, expansion

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
    ("multiplets", 10, "json"): "5fb8fdfc56fb587d236042db75dab58ff28f6fb7ec60d026d5a74fc0f2b16d94",
    ("multiplets", 10, "csv"): "fef6a2a12e9e2f5dd8fe98a33a03888d559ef1f67cb3220a7a4ab829c20d2353",
    ("multiplets", 10, "text"): "8711e93303ba74c43ea4958c60a5311ecd99c40ce915c6deef8ff0c8451535f3",
    ("zeros", 10, "json"): "54304f4fabbd19b039e2c90a245e5ff354250f836f403ea6758b4ed117eb4de2",
    ("zeros", 10, "text"): "ea0f84d5fe7bf0c885293bf67022a8d3712f1ee2bd3755a48ee7c0b47d229f53",
    ("multiplets", 11, "json"): "829ee5bef6b49f3e5e582d9a51a5629ac696aa5f515f799dea88a74ae74c9c5a",
    ("multiplets", 11, "csv"): "6f3a076f8cb9e0b63fb32e78354fd32bd282b97ac290aeea499adc63625621e9",
    ("multiplets", 11, "text"): "701ffce581ab798bdda631658783421a74c3427b388c3f07d1f8f3a4f0bc455c",
    ("zeros", 11, "json"): "ae124126490d1871022df014a7fc6e682ee00ab10f97bd58bcec8fdc35f8f038",
    ("zeros", 11, "text"): "bf22d9341614e23448d92045f9ada00f2d62b00491261ec5843adca20e5a4b3a",
    ("multiplets", 12, "json"): "a5aeee5e011b51112e78ded2212150eeb3afc27637c43f5d7f7f5ebe610da6df",
    ("multiplets", 12, "csv"): "6acc8892ae365c5664f7757a2bc4aecbe44d2e52fb2aacd45fe09b7b48ccb22a",
    ("multiplets", 12, "text"): "4d21944168912ac92648438f00209d3215d1e013249ff3d5ad4d0e8977608367",
    ("zeros", 12, "json"): "975ca5a06ecb7e760ba3434a041fd501d5b7d4b21e357934ab96c191e215aa09",
    ("zeros", 12, "text"): "fc578871f38350f574491cb0e3defe49c162cba119abeecff861cf0fd0eb6719",
    ("expand", 1, "json"): "0b60999e80723e1cc2555354305ca1f74a779c3680db6d7dda1b89c380168312",
    ("expand", 1, "json", "--include-zeros"): "0b60999e80723e1cc2555354305ca1f74a779c3680db6d7dda1b89c380168312",
    ("expand", 1, "csv"): "b5564207ea65b351ace08fd57991ea4b85f697b6107e0478fc0e163066ccd180",
    ("expand", 1, "csv", "--include-zeros"): "b5564207ea65b351ace08fd57991ea4b85f697b6107e0478fc0e163066ccd180",
    ("expand", 1, "text"): "8b256e05970be4ddbf82eabe39d94f2dcdaf2fd1a0449d48b0b462827a8d6866",
    ("expand", 1, "text", "--include-zeros"): "8b256e05970be4ddbf82eabe39d94f2dcdaf2fd1a0449d48b0b462827a8d6866",
    ("expand", 2, "json"): "4bfc11a366a608726cb44f29c38038f38439dd69d074d57b0bff58e7fe690c4c",
    ("expand", 2, "json", "--include-zeros"): "4bfc11a366a608726cb44f29c38038f38439dd69d074d57b0bff58e7fe690c4c",
    ("expand", 2, "csv"): "fd2bd2a527310538c4a1467f8427729377296af38ec2f828f5c7e0de42b705e5",
    ("expand", 2, "csv", "--include-zeros"): "fd2bd2a527310538c4a1467f8427729377296af38ec2f828f5c7e0de42b705e5",
    ("expand", 2, "text"): "e8e2cf281c31161b8082df2b1ac79aa5d9242d7a7a48bd86653325eda286661d",
    ("expand", 2, "text", "--include-zeros"): "e8e2cf281c31161b8082df2b1ac79aa5d9242d7a7a48bd86653325eda286661d",
    ("expand", 3, "json"): "2e74b9a5264f1fa24a6f3bf714b0fbe9305bd7aca8d899c4d3efb738db7a2748",
    ("expand", 3, "json", "--include-zeros"): "2e74b9a5264f1fa24a6f3bf714b0fbe9305bd7aca8d899c4d3efb738db7a2748",
    ("expand", 3, "csv"): "ef830e2532e4e5233269caf861babf2f3ee0f9ec96b4377e857948480ecbe163",
    ("expand", 3, "csv", "--include-zeros"): "ef830e2532e4e5233269caf861babf2f3ee0f9ec96b4377e857948480ecbe163",
    ("expand", 3, "text"): "e469342ddfda54d450850b1dc846b77fb13fe376cd2aab48ae68f527e24f898a",
    ("expand", 3, "text", "--include-zeros"): "e469342ddfda54d450850b1dc846b77fb13fe376cd2aab48ae68f527e24f898a",
    ("expand", 4, "json"): "9ad7ecac1d4038ab3cb451af4b4f841dd5fecf62215ec7998e637c13b29bb643",
    ("expand", 4, "json", "--include-zeros"): "9ad7ecac1d4038ab3cb451af4b4f841dd5fecf62215ec7998e637c13b29bb643",
    ("expand", 4, "csv"): "bea3b9bdf09f7ad3f7b571e20041aa701ce04793c7ef83edb9b71880e76aadd1",
    ("expand", 4, "csv", "--include-zeros"): "bea3b9bdf09f7ad3f7b571e20041aa701ce04793c7ef83edb9b71880e76aadd1",
    ("expand", 4, "text"): "b378b4e054a4b1ea8dad3951971084ca8f1c63017d5ab824e764c4b72191c9bf",
    ("expand", 4, "text", "--include-zeros"): "b378b4e054a4b1ea8dad3951971084ca8f1c63017d5ab824e764c4b72191c9bf",
    ("expand", 5, "json"): "08895757cdafbd4269b9247ed6f0d28b10fe20061641e71738ec91844d8b77c2",
    ("expand", 5, "json", "--include-zeros"): "08895757cdafbd4269b9247ed6f0d28b10fe20061641e71738ec91844d8b77c2",
    ("expand", 5, "csv"): "80f71789bda3c7e3e652e37011d9ee96d0d2024652cb38d63c8c39bb6700ffe9",
    ("expand", 5, "csv", "--include-zeros"): "80f71789bda3c7e3e652e37011d9ee96d0d2024652cb38d63c8c39bb6700ffe9",
    ("expand", 5, "text"): "3dfb588dc66d147c619f5a63fd702f40f2863bea1502f9a543c3b3c397b50373",
    ("expand", 5, "text", "--include-zeros"): "3dfb588dc66d147c619f5a63fd702f40f2863bea1502f9a543c3b3c397b50373",
    ("expand", 6, "json"): "3f2cce5617e1dab984d02720a7d7663a07196eb9311ffb042524d6f7054f6a95",
    ("expand", 6, "json", "--include-zeros"): "9da30476c4dd52e38d3441b7ecc1a02e22941bd2c67b714e545ef26f0094e362",
    ("expand", 6, "csv"): "1dbf4117cbf020bf86ac7dbbddd6693f7902f53f9d1c4f990e9d7e0c9a156a9d",
    ("expand", 6, "csv", "--include-zeros"): "97939355aff77854d342118ef6283edb9b7f9694778a2076a8cdb503ab0c3593",
    ("expand", 6, "text"): "e39c097404c067d3f97a6636940ecc37179077524d1eb371e36d3b2be935c4f5",
    ("expand", 6, "text", "--include-zeros"): "07969af15b51c200bc00f102765bae71a47858b2716efbdf0220893768a9fad9",
    ("expand", 7, "json"): "f1ba559a7b8039d162df9577a2498c8f6b77eac1414e5e9deda727e3ae045979",
    ("expand", 7, "json", "--include-zeros"): "f1ba559a7b8039d162df9577a2498c8f6b77eac1414e5e9deda727e3ae045979",
    ("expand", 7, "csv"): "f67d161e393e64396eaedaaa3ac1b467f229b1199bc1773e1c383d5a8f04f63d",
    ("expand", 7, "csv", "--include-zeros"): "f67d161e393e64396eaedaaa3ac1b467f229b1199bc1773e1c383d5a8f04f63d",
    ("expand", 7, "text"): "911e179644c8c949f38d6218700f41e40484a5ca1975d51a10719fff5f15c106",
    ("expand", 7, "text", "--include-zeros"): "911e179644c8c949f38d6218700f41e40484a5ca1975d51a10719fff5f15c106",
    ("expand", 8, "json"): "2cbf9053287ecdc80747e69e61737058a8f63d617e474228f0f10567caf91d34",
    ("expand", 8, "json", "--include-zeros"): "2cbf9053287ecdc80747e69e61737058a8f63d617e474228f0f10567caf91d34",
    ("expand", 8, "csv"): "f3b3db834d155041eaeab165b8eb78d44f92b0aa468b8a528018d84b206b588d",
    ("expand", 8, "csv", "--include-zeros"): "f3b3db834d155041eaeab165b8eb78d44f92b0aa468b8a528018d84b206b588d",
    ("expand", 8, "text"): "97230c379566a9c6cd24be6624978002810172d0d9dca25b9f8dce9dcfcaf330",
    ("expand", 8, "text", "--include-zeros"): "97230c379566a9c6cd24be6624978002810172d0d9dca25b9f8dce9dcfcaf330",
    ("expand", 9, "json"): "a3616bf177f780373a4ab11bbd81971cd067f38bc32209da50ebb76c130222ef",
    ("expand", 9, "json", "--include-zeros"): "a3616bf177f780373a4ab11bbd81971cd067f38bc32209da50ebb76c130222ef",
    ("expand", 9, "csv"): "368bad3e25ecc3ac2304cc8e99ed6bf11558829bf726a4c3f33fc0bda7d7d14d",
    ("expand", 9, "csv", "--include-zeros"): "368bad3e25ecc3ac2304cc8e99ed6bf11558829bf726a4c3f33fc0bda7d7d14d",
    ("expand", 9, "text"): "894c454ba56b1db21226f3d043a8c86c70ca830be253604a5820e9571ffd7175",
    ("expand", 9, "text", "--include-zeros"): "894c454ba56b1db21226f3d043a8c86c70ca830be253604a5820e9571ffd7175",
    ("expand", 10, "json"): "90f2d5eaaeb8aa7c1bbb2d12e76b31f4363efa632200ffd69488b689a316e992",
    ("expand", 10, "json", "--include-zeros"): "9a3075c39e51401f562bef3cd85711dbc34a6626b0778f8ac75981b8c6d36200",
    ("expand", 10, "csv"): "cafe95df14695d3fd3b3a4b502f12fe14aeb13ab73ef14a40803430fb08b1140",
    ("expand", 10, "csv", "--include-zeros"): "f791a10b25db7606918038a7e9a4e3786c28c9f9ac0b7af62ed01ee1055cbf7f",
    ("expand", 10, "text"): "ba972124de84aea5976ed7e7a0bb4f6dffbbcd86da042747b61d871e48decb9a",
    ("expand", 10, "text", "--include-zeros"): "7c9e55c6852c001d49b09e05adf1680535ee4b122dc1aab8f9285d9535e4c868",
    ("expand", 11, "json"): "144f57e28708e22527b463d47f89aacfdbb84e6d03d37e915ff563fa9d4bf76f",
    ("expand", 11, "json", "--include-zeros"): "144f57e28708e22527b463d47f89aacfdbb84e6d03d37e915ff563fa9d4bf76f",
    ("expand", 11, "csv"): "9e02c1d09f7092439b8148cc122638d23e34651420a0594f8d1c1887ce9f0be0",
    ("expand", 11, "csv", "--include-zeros"): "9e02c1d09f7092439b8148cc122638d23e34651420a0594f8d1c1887ce9f0be0",
    ("expand", 11, "text"): "aa265bb2b566d2aa61c0d18934c5dfc08dd0afa823d24f67806a9426d80c618e",
    ("expand", 11, "text", "--include-zeros"): "aa265bb2b566d2aa61c0d18934c5dfc08dd0afa823d24f67806a9426d80c618e",
    ("expand", 12, "json"): "90ef337222820ee72bcbb5493bdeee42cf2751948892d5fb89a6c97844bf082b",
    ("expand", 12, "json", "--include-zeros"): "796721931a79007794a48656aba2980e242fdc9d8f83453e33f94da38660afa1",
    ("expand", 12, "csv"): "9207e69ef039079ee565d2912c4bbe878646228feac851656733cceb89377630",
    ("expand", 12, "csv", "--include-zeros"): "29b12d930e7fdfbd1c5db748a906c3ee9d07a9c1cdc04b73bce288eaaec8a204",
    ("expand", 12, "text"): "ae21a8fae65ab7698770e0c696e2c79a79c4089a4be577da56464e75ebed89be",
    ("expand", 12, "text", "--include-zeros"): "de522f760e3cfb5397ccfd9fcf21bc457d94e8359551799861e98266a17b2158",
}

# index sets of N = 14 and 16: gated sets with 5..8 indices >= 2, one
# all-equal set and one that fails the residue gate
COEFF_LARGE = {
    14: ["0,0,0,0,0,1,1,1,2,3,5,7,9,13", "0,1,1,1,1,1,1,1,2,2,4,6,9,12",
         "0,0,0,0,0,0,1,2,3,4,5,8,9,10", "3,3,3,3,3,3,3,3,3,3,3,3,3,3",
         "0,0,0,0,0,0,0,0,0,0,0,0,0,5"],
    16: ["0,0,0,0,0,0,0,0,0,2,3,4,6,8,11,14", "0,0,0,0,1,1,1,1,1,2,2,3,5,7,11,13",
         "0,0,0,0,0,0,0,0,0,1,1,4,6,9,12,15", "0,0,1,1,1,1,1,1,3,5,7,9,10,12,13,15",
         "7,7,7,7,7,7,7,7,7,7,7,7,7,7,7,7"],
}

# (N, format) -> sha256 of the `coeff N ... --format F` outputs, concatenated
# over every index set of N (N <= 6) or over COEFF_LARGE[N]
COEFF_GOLDEN = {
    (1, "json"): "0fe44d34828b0259c7fa10e6e47a785d81eb5efc7b53d32ee3f125c28febd4eb",
    (1, "text"): "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    (2, "json"): "41e88fc79de29bf80e1afbf4cc2a19114011241fa12fc38b390cfad57ee0c993",
    (2, "text"): "f4e0a9742d1657900132a012e6467bd9ec2fe65296df2e10fee370fcee4087b4",
    (3, "json"): "2b484510d0470006f6eb58c9a362ce6d8ab01d8999e2710fc40f65c2458c5544",
    (3, "text"): "b1d3388f9e8896f3fbc4e75a5f0026b1e3aa7f55fc5c07d7c74e1bffb696d1d9",
    (4, "json"): "c07821a0f4e4aade774c2351205ca2c19b350ea74389556a29661aaddb1a5a1f",
    (4, "text"): "8eb5a3496970090bc83f9cfb243774d87c2a482fedac5d697ce0a8dd7c0165cd",
    (5, "json"): "592cdd2583a39df372c8e7158fb2a28a2ee038b44f10c57bb54085e4f275de0c",
    (5, "text"): "f59d1188a769dd0acdfd8b76a8397b87ff1c915fe33183615cbdca714207f89a",
    (6, "json"): "24e86fc288790af0ddbe31637effc8be0098865e5fc32e0fc28ac7423dbf0ece",
    (6, "text"): "d58a97b2219d233263ca1e73f265ab8a5161b2bcc73c582232824910aef3047c",
    (14, "json"): "d41bdc560b05067904d5b74d1ac0dcd943672875e9c28ed330612296592fbfba",
    (14, "text"): "378b15c97198f601d09a1f86fdc8e648c46d3371111f25ca417b9f5e3c922ae6",
    (16, "json"): "9beb7f3c70301fd03e4dc7e72b159379a6339bb9614eff8f9949ff046ea5194a",
    (16, "text"): "ee017ce0cc81e8272a2e62f20dce67b4e049421308dda6fbda8604e46dccac60",
}


def test_orbit_outputs_match_golden_hashes(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # the keys list each N's six expand outputs together; build its
    # term list once for them (about 1 s of group passes otherwise)
    monkeypatch.setattr(expansion, "expand", functools.lru_cache(maxsize=1)(expansion.expand))
    got = {}
    for key in GOLDEN:
        command, n, fmt = key[:3]
        code = cli.main([command, str(n), "--format", fmt, *key[3:]])
        assert code == 0, key
        got[key] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert got == GOLDEN


def _index_sets(n):
    if n in COEFF_LARGE:
        return COEFF_LARGE[n]
    return [",".join(map(str, a)) for a in itertools.combinations_with_replacement(range(n), n)]


def test_coeff_outputs_match_golden_hashes(capsys):
    got = {}
    for n, fmt in COEFF_GOLDEN:
        outs = []
        for a in _index_sets(n):
            assert cli.main(["coeff", str(n), a, "--format", fmt]) == 0, (n, a)
            outs.append(capsys.readouterr().out)
        got[n, fmt] = hashlib.sha256("".join(outs).encode()).hexdigest()
    assert got == COEFF_GOLDEN


def test_all_distinct_coefficients():
    # 0, 1, ..., N-1: every index distinct, the largest partition sum at N
    # (p = N - 3 labels); values computed by the DP over merged contents
    # alone, not over labeled subsets
    assert coeff_engine.coefficient(range(15)) == 30375
    assert coeff_engine.coefficient(range(17)) == 25219857
