#ifndef FAIRCLIQUE_TESTS_REDUCTION_GOLDEN_H_
#define FAIRCLIQUE_TESTS_REDUCTION_GOLDEN_H_

#include <cstddef>
#include <cstdint>

#include "reduction/reduce.h"

namespace fairclique {
namespace reduction_golden {

// Pinned reduced graphs. The fingerprints were recorded from the
// merge-intersection implementation that preceded the triangle index (a
// per-edge key/count table built with ForEachCommonNeighbor and a peel that
// re-merged both adjacency rows per popped edge). Every reduction stage must
// keep producing the identical graph: same vertex ids, same edges.
//
// `stages` selects the pipeline: 0 = all three stages, 1 = EnColorfulCore
// alone, 2 = ColorfulSup alone, 3 = EnColorfulSup alone.
struct GoldenReduction {
  const char* dataset;
  int scale;
  int k;
  int stages;
  VertexId vertices;
  EdgeId edges;
  uint64_t hash;  // FNV-1a 64 over edges() then original_ids
};

constexpr GoldenReduction kGolden[] = {
    {"themarker-s", 1, 2, 0, 984, 10017, 0x103e736e117aaec3ull},
    {"themarker-s", 1, 2, 1, 1491, 19170, 0x2022337fe8904e98ull},
    {"themarker-s", 1, 2, 2, 984, 10050, 0xd95d44c2864a281eull},
    {"themarker-s", 1, 2, 3, 984, 10032, 0xc3405f844f079f5full},
    {"themarker-s", 1, 3, 0, 694, 6677, 0x3e8740cef529713dull},
    {"themarker-s", 1, 3, 1, 1397, 18664, 0x05ddcda996a9cb94ull},
    {"themarker-s", 1, 3, 2, 694, 6709, 0x8484bbd619eb6a09ull},
    {"themarker-s", 1, 3, 3, 694, 6704, 0xa7cb9b954b4cd294ull},
    {"themarker-s", 1, 4, 0, 528, 4856, 0x8a52519bc636d025ull},
    {"themarker-s", 1, 4, 1, 1190, 17081, 0xc79edde3bb25bfbeull},
    {"themarker-s", 1, 4, 2, 529, 4892, 0x97e23423d5d8ede4ull},
    {"themarker-s", 1, 4, 3, 528, 4871, 0x2643bf9eb5285dfbull},
    {"themarker-s", 1, 5, 0, 349, 3337, 0x6a6ad0bf5260a082ull},
    {"themarker-s", 1, 5, 1, 929, 14358, 0x8cbb03afe3e8f943ull},
    {"themarker-s", 1, 5, 2, 350, 3370, 0x902b898569649bc7ull},
    {"themarker-s", 1, 5, 3, 350, 3352, 0x271fdc91cf96b00dull},
    {"themarker-s", 1, 6, 0, 191, 2129, 0xda4da18d66e5f551ull},
    {"themarker-s", 1, 6, 1, 616, 10133, 0xfe27d3d9b299f122ull},
    {"themarker-s", 1, 6, 2, 190, 2092, 0x2302adf111151ecbull},
    {"themarker-s", 1, 6, 3, 190, 2092, 0x2302adf111151ecbull},
    {"themarker-s", 4, 2, 0, 2289, 21486, 0x6c341e511f9a478bull},
    {"themarker-s", 4, 2, 1, 5890, 66689, 0x741cec5efc937972ull},
    {"themarker-s", 4, 2, 2, 2289, 21551, 0x794b49bb09d70cc5ull},
    {"themarker-s", 4, 2, 3, 2289, 21528, 0x52cddff12e32798bull},
    {"themarker-s", 4, 3, 0, 1202, 13067, 0xf735486bbb10e4c4ull},
    {"themarker-s", 4, 3, 1, 5252, 63204, 0x98a020ef8f29869cull},
    {"themarker-s", 4, 3, 2, 1202, 13132, 0x4df9efdada69c313ull},
    {"themarker-s", 4, 3, 3, 1201, 13089, 0xf1ba48626289d1b9ull},
    {"themarker-s", 4, 4, 0, 808, 9316, 0xcc129569cd67b968ull},
    {"themarker-s", 4, 4, 1, 3877, 52943, 0xc0082635cab6473cull},
    {"themarker-s", 4, 4, 2, 811, 9421, 0xe7b9058f87d49069ull},
    {"themarker-s", 4, 4, 3, 810, 9395, 0xca2ac92341e32ccdull},
    {"themarker-s", 4, 5, 0, 519, 6654, 0x4f52db3c7ad84bcfull},
    {"themarker-s", 4, 5, 1, 2339, 37676, 0xc5dbdf7c6a1299a9ull},
    {"themarker-s", 4, 5, 2, 518, 6706, 0x326f149219317266ull},
    {"themarker-s", 4, 5, 3, 518, 6685, 0x6cb7483cbb91713full},
    {"themarker-s", 4, 6, 0, 277, 4629, 0xdbf11234359173dfull},
    {"themarker-s", 4, 6, 1, 1199, 22915, 0xfad997486ba0f771ull},
    {"themarker-s", 4, 6, 2, 280, 4715, 0x6070cd1f35710429ull},
    {"themarker-s", 4, 6, 3, 278, 4683, 0x0643aa4a285d6425ull},
    {"google-s", 1, 5, 0, 281, 1792, 0x48450a0a634e68d3ull},
    {"google-s", 1, 5, 1, 282, 1871, 0x45c576fe030d49a4ull},
    {"google-s", 1, 5, 2, 281, 1792, 0x48450a0a634e68d3ull},
    {"google-s", 1, 5, 3, 281, 1792, 0x48450a0a634e68d3ull},
    {"google-s", 1, 6, 0, 124, 983, 0x4ab80266010c4006ull},
    {"google-s", 1, 6, 1, 124, 1001, 0xac4fa22208b77d6eull},
    {"google-s", 1, 6, 2, 124, 983, 0x4ab80266010c4006ull},
    {"google-s", 1, 6, 3, 124, 983, 0x4ab80266010c4006ull},
    {"google-s", 1, 7, 0, 90, 785, 0xf874361ae7a09a63ull},
    {"google-s", 1, 7, 1, 90, 792, 0xc9974d62b7a6da2cull},
    {"google-s", 1, 7, 2, 90, 785, 0xf874361ae7a09a63ull},
    {"google-s", 1, 7, 3, 90, 785, 0xf874361ae7a09a63ull},
    {"google-s", 1, 8, 0, 76, 694, 0xcfdbbc1acf5a7150ull},
    {"google-s", 1, 8, 1, 76, 699, 0x1214b8b9ed191a97ull},
    {"google-s", 1, 8, 2, 76, 694, 0xcfdbbc1acf5a7150ull},
    {"google-s", 1, 8, 3, 76, 694, 0xcfdbbc1acf5a7150ull},
    {"google-s", 1, 9, 0, 60, 574, 0xc8e20f8506718eacull},
    {"google-s", 1, 9, 1, 60, 577, 0x86b91eb7ad69d751ull},
    {"google-s", 1, 9, 2, 60, 574, 0xc8e20f8506718eacull},
    {"google-s", 1, 9, 3, 60, 574, 0xc8e20f8506718eacull},
    {"google-s", 4, 5, 0, 306, 1953, 0xecf6852a07ee171eull},
    {"google-s", 4, 5, 1, 306, 1973, 0x725368dc6dc54a99ull},
    {"google-s", 4, 5, 2, 306, 1953, 0xecf6852a07ee171eull},
    {"google-s", 4, 5, 3, 306, 1953, 0xecf6852a07ee171eull},
    {"google-s", 4, 6, 0, 162, 1181, 0x4701bcd7f89a8f99ull},
    {"google-s", 4, 6, 1, 162, 1187, 0xdbad87620b0a16cdull},
    {"google-s", 4, 6, 2, 162, 1181, 0x4701bcd7f89a8f99ull},
    {"google-s", 4, 6, 3, 162, 1181, 0x4701bcd7f89a8f99ull},
    {"google-s", 4, 7, 0, 90, 785, 0xd49115469f84a90cull},
    {"google-s", 4, 7, 1, 90, 787, 0x8016792f4c21a880ull},
    {"google-s", 4, 7, 2, 90, 785, 0xd49115469f84a90cull},
    {"google-s", 4, 7, 3, 90, 785, 0xd49115469f84a90cull},
    {"google-s", 4, 8, 0, 76, 694, 0x9e5a8f65776c0a03ull},
    {"google-s", 4, 8, 1, 76, 696, 0x09893e0b70f733caull},
    {"google-s", 4, 8, 2, 76, 694, 0x9e5a8f65776c0a03ull},
    {"google-s", 4, 8, 3, 76, 694, 0x9e5a8f65776c0a03ull},
    {"google-s", 4, 9, 0, 60, 574, 0x86fda28107b7a50eull},
    {"google-s", 4, 9, 1, 60, 574, 0x86fda28107b7a50eull},
    {"google-s", 4, 9, 2, 60, 574, 0x86fda28107b7a50eull},
    {"google-s", 4, 9, 3, 60, 574, 0x86fda28107b7a50eull},
    {"dblp-s", 1, 5, 0, 1389, 9618, 0x15405dcc58cf1f08ull},
    {"dblp-s", 1, 5, 1, 1566, 12878, 0xb5e97265aa5c60dbull},
    {"dblp-s", 1, 5, 2, 1389, 9618, 0x15405dcc58cf1f08ull},
    {"dblp-s", 1, 5, 3, 1389, 9618, 0x15405dcc58cf1f08ull},
    {"dblp-s", 1, 6, 0, 784, 5400, 0x2f769136637617cbull},
    {"dblp-s", 1, 6, 1, 794, 6074, 0x75224667ce4c0d09ull},
    {"dblp-s", 1, 6, 2, 784, 5400, 0x2f769136637617cbull},
    {"dblp-s", 1, 6, 3, 784, 5400, 0x2f769136637617cbull},
    {"dblp-s", 1, 7, 0, 251, 1877, 0x01a40c70426ed34cull},
    {"dblp-s", 1, 7, 1, 251, 1942, 0x168563b672185c1cull},
    {"dblp-s", 1, 7, 2, 251, 1877, 0x01a40c70426ed34cull},
    {"dblp-s", 1, 7, 3, 251, 1877, 0x01a40c70426ed34cull},
    {"dblp-s", 1, 8, 0, 76, 694, 0x5b6e783052f8e792ull},
    {"dblp-s", 1, 8, 1, 76, 698, 0x4bbed1a24b811410ull},
    {"dblp-s", 1, 8, 2, 76, 694, 0x5b6e783052f8e792ull},
    {"dblp-s", 1, 8, 3, 76, 694, 0x5b6e783052f8e792ull},
    {"dblp-s", 1, 9, 0, 60, 574, 0x550a75075d4580edull},
    {"dblp-s", 1, 9, 1, 60, 575, 0x91336286b1018bfaull},
    {"dblp-s", 1, 9, 2, 60, 574, 0x550a75075d4580edull},
    {"dblp-s", 1, 9, 3, 60, 574, 0x550a75075d4580edull},
    {"dblp-s", 4, 5, 0, 1679, 10324, 0x61865e22febda109ull},
    {"dblp-s", 4, 5, 1, 1712, 11782, 0x47338bd6d5078e78ull},
    {"dblp-s", 4, 5, 2, 1679, 10324, 0x61865e22febda109ull},
    {"dblp-s", 4, 5, 3, 1679, 10324, 0x61865e22febda109ull},
    {"dblp-s", 4, 6, 0, 806, 5291, 0x229c6181ee3c8d8cull},
    {"dblp-s", 4, 6, 1, 806, 5564, 0x397400b40906ac61ull},
    {"dblp-s", 4, 6, 2, 806, 5291, 0x229c6181ee3c8d8cull},
    {"dblp-s", 4, 6, 3, 806, 5291, 0x229c6181ee3c8d8cull},
    {"dblp-s", 4, 7, 0, 187, 1422, 0xfe1128a4fd244748ull},
    {"dblp-s", 4, 7, 1, 187, 1433, 0x3e23f10e55a707f3ull},
    {"dblp-s", 4, 7, 2, 187, 1422, 0xfe1128a4fd244748ull},
    {"dblp-s", 4, 7, 3, 187, 1422, 0xfe1128a4fd244748ull},
    {"dblp-s", 4, 8, 0, 76, 694, 0x897538dde9e2cd4aull},
    {"dblp-s", 4, 8, 1, 76, 698, 0xc4dbb56ba6606967ull},
    {"dblp-s", 4, 8, 2, 76, 694, 0x897538dde9e2cd4aull},
    {"dblp-s", 4, 8, 3, 76, 694, 0x897538dde9e2cd4aull},
    {"dblp-s", 4, 9, 0, 60, 574, 0x13e5802d922195c2ull},
    {"dblp-s", 4, 9, 1, 60, 577, 0x5927a7bde23b13d3ull},
    {"dblp-s", 4, 9, 2, 60, 574, 0x13e5802d922195c2ull},
    {"dblp-s", 4, 9, 3, 60, 574, 0x13e5802d922195c2ull},
    {"flixster-s", 1, 2, 0, 795, 4022, 0x169608b0c8a383a8ull},
    {"flixster-s", 1, 2, 1, 4096, 17902, 0x8efb3a9d6c992f05ull},
    {"flixster-s", 1, 2, 2, 795, 4023, 0x256f67a76aa64534ull},
    {"flixster-s", 1, 2, 3, 795, 4023, 0x256f67a76aa64534ull},
    {"flixster-s", 1, 3, 0, 625, 3330, 0xddff2c4a99e4ebadull},
    {"flixster-s", 1, 3, 1, 1169, 7254, 0x47ad478ff31dbf72ull},
    {"flixster-s", 1, 3, 2, 625, 3330, 0xddff2c4a99e4ebadull},
    {"flixster-s", 1, 3, 3, 625, 3330, 0xddff2c4a99e4ebadull},
    {"flixster-s", 1, 4, 0, 486, 2779, 0x22c4d989631b7f0cull},
    {"flixster-s", 1, 4, 1, 541, 3479, 0x440aa3f5eb9e4648ull},
    {"flixster-s", 1, 4, 2, 486, 2779, 0x22c4d989631b7f0cull},
    {"flixster-s", 1, 4, 3, 486, 2779, 0x22c4d989631b7f0cull},
    {"flixster-s", 1, 5, 0, 236, 1546, 0x4da8aa420287ef2eull},
    {"flixster-s", 1, 5, 1, 236, 1571, 0x0354745ac26bf7e1ull},
    {"flixster-s", 1, 5, 2, 236, 1546, 0x4da8aa420287ef2eull},
    {"flixster-s", 1, 5, 3, 236, 1546, 0x4da8aa420287ef2eull},
    {"flixster-s", 1, 6, 0, 125, 983, 0x1395df2e37d3975eull},
    {"flixster-s", 1, 6, 1, 125, 988, 0xfd6a93cf29b04433ull},
    {"flixster-s", 1, 6, 2, 125, 983, 0x1395df2e37d3975eull},
    {"flixster-s", 1, 6, 3, 125, 983, 0x1395df2e37d3975eull},
    {"flixster-s", 4, 2, 0, 933, 4546, 0x5bcbfaf5a854ad02ull},
    {"flixster-s", 4, 2, 1, 15350, 58919, 0x6770464df9a2c735ull},
    {"flixster-s", 4, 2, 2, 933, 4554, 0xba9ae3b75e412833ull},
    {"flixster-s", 4, 2, 3, 933, 4548, 0x2c62a270f22b081dull},
    {"flixster-s", 4, 3, 0, 704, 3662, 0xf88ead3e599547c9ull},
    {"flixster-s", 4, 3, 1, 2184, 13098, 0x62c46ced2a2656d9ull},
    {"flixster-s", 4, 3, 2, 704, 3662, 0xf88ead3e599547c9ull},
    {"flixster-s", 4, 3, 3, 704, 3662, 0xf88ead3e599547c9ull},
    {"flixster-s", 4, 4, 0, 507, 2782, 0x52682035f7d15d87ull},
    {"flixster-s", 4, 4, 1, 579, 3611, 0x4940c5fdd87a8f9cull},
    {"flixster-s", 4, 4, 2, 507, 2782, 0x52682035f7d15d87ull},
    {"flixster-s", 4, 4, 3, 507, 2782, 0x52682035f7d15d87ull},
    {"flixster-s", 4, 5, 0, 237, 1558, 0x75f8c691919e44c9ull},
    {"flixster-s", 4, 5, 1, 250, 1669, 0x74b574183a39750bull},
    {"flixster-s", 4, 5, 2, 237, 1558, 0x75f8c691919e44c9ull},
    {"flixster-s", 4, 5, 3, 237, 1558, 0x75f8c691919e44c9ull},
    {"flixster-s", 4, 6, 0, 125, 983, 0x459bdb45ee9d808dull},
    {"flixster-s", 4, 6, 1, 125, 984, 0x52d5ae71ca117b26ull},
    {"flixster-s", 4, 6, 2, 125, 983, 0x459bdb45ee9d808dull},
    {"flixster-s", 4, 6, 3, 125, 983, 0x459bdb45ee9d808dull},
    {"pokec-s", 1, 3, 0, 920, 7629, 0xae0db747ddb42092ull},
    {"pokec-s", 1, 3, 1, 3610, 41688, 0x8739604d56e3e07full},
    {"pokec-s", 1, 3, 2, 922, 7694, 0x993bddea72803762ull},
    {"pokec-s", 1, 3, 3, 922, 7674, 0xe96f5631ba2869f6ull},
    {"pokec-s", 1, 4, 0, 606, 5191, 0xac362b035e045c0bull},
    {"pokec-s", 1, 4, 1, 2691, 34518, 0xe693b7c424d8d952ull},
    {"pokec-s", 1, 4, 2, 607, 5268, 0x78027989ea46b1e7ull},
    {"pokec-s", 1, 4, 3, 607, 5257, 0xa5aa0c5234f05f6eull},
    {"pokec-s", 1, 5, 0, 332, 3375, 0x996945f8d0460128ull},
    {"pokec-s", 1, 5, 1, 1550, 22637, 0x0787bfecf7d7d62full},
    {"pokec-s", 1, 5, 2, 332, 3415, 0x1b7ee3d0f1a1d6baull},
    {"pokec-s", 1, 5, 3, 332, 3410, 0xfaa725c306ed6f4bull},
    {"pokec-s", 1, 6, 0, 211, 2327, 0x572eb96c4c14b686ull},
    {"pokec-s", 1, 6, 1, 646, 10946, 0xa47d826820d4878bull},
    {"pokec-s", 1, 6, 2, 211, 2370, 0xe314380fdffb8ce5ull},
    {"pokec-s", 1, 6, 3, 211, 2363, 0x3fe10738dae67893ull},
    {"pokec-s", 1, 7, 0, 145, 1742, 0xa98e075e2bfe46e5ull},
    {"pokec-s", 1, 7, 1, 338, 6248, 0x33f2663b06cebb2aull},
    {"pokec-s", 1, 7, 2, 146, 1764, 0xf32ee781280f84beull},
    {"pokec-s", 1, 7, 3, 145, 1738, 0xa4f5b74b5b36301full},
    {"pokec-s", 4, 3, 0, 1376, 15621, 0x9b58c3b90a6ac771ull},
    {"pokec-s", 4, 3, 1, 13982, 156985, 0xabf605616f2c228bull},
    {"pokec-s", 4, 3, 2, 1380, 15766, 0xe043e1a8d2c36f93ull},
    {"pokec-s", 4, 3, 3, 1380, 15714, 0x8a3b0a97c0992610ull},
    {"pokec-s", 4, 4, 0, 923, 10897, 0xf52eeae530e3628full},
    {"pokec-s", 4, 4, 1, 9329, 121391, 0xd47f5c64b4b73f09ull},
    {"pokec-s", 4, 4, 2, 924, 11002, 0x8eebd132cc83e33full},
    {"pokec-s", 4, 4, 3, 924, 10967, 0x5fe6cca5b3a7811bull},
    {"pokec-s", 4, 5, 0, 535, 7293, 0x62d558beac3adac4ull},
    {"pokec-s", 4, 5, 1, 4573, 73386, 0x4339c21e32cdedb9ull},
    {"pokec-s", 4, 5, 2, 538, 7434, 0x1c41d0a6a40857bbull},
    {"pokec-s", 4, 5, 3, 538, 7396, 0xbb8910c59fddc30cull},
    {"pokec-s", 4, 6, 0, 316, 5187, 0xcfa870422de4e7c9ull},
    {"pokec-s", 4, 6, 1, 2090, 40932, 0xc15bd2cbb2823e67ull},
    {"pokec-s", 4, 6, 2, 318, 5292, 0xf47ae544f1a247b8ull},
    {"pokec-s", 4, 6, 3, 318, 5276, 0x03b3bf7b8a9afcf7ull},
    {"pokec-s", 4, 7, 0, 216, 4007, 0x04413f2e5fd0bfb8ull},
    {"pokec-s", 4, 7, 1, 1092, 24884, 0x6ebb30324de34ee8ull},
    {"pokec-s", 4, 7, 2, 219, 4090, 0x7d93415d801ef3c7ull},
    {"pokec-s", 4, 7, 3, 218, 4043, 0xd69ab412131bbbbaull},
    {"aminer-s", 1, 4, 0, 308, 1961, 0x71ecd5c6703155deull},
    {"aminer-s", 1, 4, 1, 308, 2074, 0xc253e3f56520cb17ull},
    {"aminer-s", 1, 4, 2, 308, 1961, 0x71ecd5c6703155deull},
    {"aminer-s", 1, 4, 3, 308, 1961, 0x71ecd5c6703155deull},
    {"aminer-s", 1, 5, 0, 132, 1016, 0x96afe39f9a33e494ull},
    {"aminer-s", 1, 5, 1, 132, 1032, 0x76202fe100d47d10ull},
    {"aminer-s", 1, 5, 2, 132, 1016, 0x96afe39f9a33e494ull},
    {"aminer-s", 1, 5, 3, 132, 1016, 0x96afe39f9a33e494ull},
    {"aminer-s", 1, 6, 0, 100, 851, 0x2c2fa9647a4cd480ull},
    {"aminer-s", 1, 6, 1, 100, 860, 0xbf7c8c38b567e4f3ull},
    {"aminer-s", 1, 6, 2, 100, 851, 0x2c2fa9647a4cd480ull},
    {"aminer-s", 1, 6, 3, 100, 851, 0x2c2fa9647a4cd480ull},
    {"aminer-s", 1, 7, 0, 89, 785, 0x6e1e26bd57ff4390ull},
    {"aminer-s", 1, 7, 1, 89, 790, 0x3a9868109060aa85ull},
    {"aminer-s", 1, 7, 2, 89, 785, 0x6e1e26bd57ff4390ull},
    {"aminer-s", 1, 7, 3, 89, 785, 0x6e1e26bd57ff4390ull},
    {"aminer-s", 1, 8, 0, 75, 694, 0x9ed5ef23d20613b5ull},
    {"aminer-s", 1, 8, 1, 75, 698, 0x7992141b88b382edull},
    {"aminer-s", 1, 8, 2, 75, 694, 0x9ed5ef23d20613b5ull},
    {"aminer-s", 1, 8, 3, 75, 694, 0x9ed5ef23d20613b5ull},
    {"aminer-s", 4, 4, 0, 398, 2332, 0x16f8e2e50369b7fdull},
    {"aminer-s", 4, 4, 1, 398, 2436, 0xff619db9809011e6ull},
    {"aminer-s", 4, 4, 2, 398, 2332, 0x16f8e2e50369b7fdull},
    {"aminer-s", 4, 4, 3, 398, 2332, 0x16f8e2e50369b7fdull},
    {"aminer-s", 4, 5, 0, 194, 1346, 0x3b6894d9bfac42eeull},
    {"aminer-s", 4, 5, 1, 194, 1368, 0x5f5d984ce78b73edull},
    {"aminer-s", 4, 5, 2, 194, 1346, 0x3b6894d9bfac42eeull},
    {"aminer-s", 4, 5, 3, 194, 1346, 0x3b6894d9bfac42eeull},
    {"aminer-s", 4, 6, 0, 125, 983, 0xd625b30b5f3fb878ull},
    {"aminer-s", 4, 6, 1, 125, 994, 0xd2a222b5e6b91820ull},
    {"aminer-s", 4, 6, 2, 125, 983, 0xd625b30b5f3fb878ull},
    {"aminer-s", 4, 6, 3, 125, 983, 0xd625b30b5f3fb878ull},
    {"aminer-s", 4, 7, 0, 89, 785, 0xd4e63e02528d6527ull},
    {"aminer-s", 4, 7, 1, 89, 793, 0xc56fa0af4c85b1b8ull},
    {"aminer-s", 4, 7, 2, 89, 785, 0xd4e63e02528d6527ull},
    {"aminer-s", 4, 7, 3, 89, 785, 0xd4e63e02528d6527ull},
    {"aminer-s", 4, 8, 0, 75, 694, 0x4b0caba966196bbeull},
    {"aminer-s", 4, 8, 1, 75, 698, 0xd12bbef28e0af3c3ull},
    {"aminer-s", 4, 8, 2, 75, 694, 0x4b0caba966196bbeull},
    {"aminer-s", 4, 8, 3, 75, 694, 0x4b0caba966196bbeull},
};

// The same pipelines at each stand-in's lifted k: the k' = LiftedK of the
// HeurRFC seed of a full-preset query at the dataset's default k and
// delta = 1, the plan a cold query at that key prepares. There the plain
// 2(k'-1)-core that EnColorfulCore(k'-1) starts its peel from already drops
// vertices, so these rows pin that degree pre-peel. Recorded from the
// pipeline before the pre-peel and the survivor copy existed.
constexpr GoldenReduction kGoldenLifted[] = {
    {"themarker-s", 1, 11, 0, 49, 571, 0x8eefab0b23a25a77ull},
    {"themarker-s", 1, 11, 1, 57, 845, 0x3a1abdf55c00fa7eull},
    {"themarker-s", 1, 11, 2, 49, 571, 0x8eefab0b23a25a77ull},
    {"themarker-s", 1, 11, 3, 49, 571, 0x8eefab0b23a25a77ull},
    {"themarker-s", 4, 17, 0, 0, 0, 0xcbf29ce484222325ull},
    {"themarker-s", 4, 17, 1, 0, 0, 0xcbf29ce484222325ull},
    {"themarker-s", 4, 17, 2, 0, 0, 0xcbf29ce484222325ull},
    {"themarker-s", 4, 17, 3, 0, 0, 0xcbf29ce484222325ull},
    {"google-s", 1, 11, 0, 22, 231, 0xeb0c40b1b0ad8b4dull},
    {"google-s", 1, 11, 1, 22, 231, 0xeb0c40b1b0ad8b4dull},
    {"google-s", 1, 11, 2, 22, 231, 0xeb0c40b1b0ad8b4dull},
    {"google-s", 1, 11, 3, 22, 231, 0xeb0c40b1b0ad8b4dull},
    {"google-s", 4, 11, 0, 22, 231, 0xd72ea71d9a400486ull},
    {"google-s", 4, 11, 1, 22, 231, 0xd72ea71d9a400486ull},
    {"google-s", 4, 11, 2, 22, 231, 0xd72ea71d9a400486ull},
    {"google-s", 4, 11, 3, 22, 231, 0xd72ea71d9a400486ull},
    {"dblp-s", 1, 11, 0, 22, 231, 0x8879c1d35f414a66ull},
    {"dblp-s", 1, 11, 1, 22, 231, 0x8879c1d35f414a66ull},
    {"dblp-s", 1, 11, 2, 22, 231, 0x8879c1d35f414a66ull},
    {"dblp-s", 1, 11, 3, 22, 231, 0x8879c1d35f414a66ull},
    {"dblp-s", 4, 11, 0, 22, 231, 0x7fd8aaef37cf8e1dull},
    {"dblp-s", 4, 11, 1, 22, 231, 0x7fd8aaef37cf8e1dull},
    {"dblp-s", 4, 11, 2, 22, 231, 0x7fd8aaef37cf8e1dull},
    {"dblp-s", 4, 11, 3, 22, 231, 0x7fd8aaef37cf8e1dull},
    {"flixster-s", 1, 10, 0, 42, 421, 0x72e870f6094237f1ull},
    {"flixster-s", 1, 10, 1, 42, 422, 0x7eaabc901c2d125dull},
    {"flixster-s", 1, 10, 2, 42, 421, 0x72e870f6094237f1ull},
    {"flixster-s", 1, 10, 3, 42, 421, 0x72e870f6094237f1ull},
    {"flixster-s", 4, 11, 0, 22, 231, 0x4e75e839ec08b136ull},
    {"flixster-s", 4, 11, 1, 22, 231, 0x4e75e839ec08b136ull},
    {"flixster-s", 4, 11, 2, 22, 231, 0x4e75e839ec08b136ull},
    {"flixster-s", 4, 11, 3, 22, 231, 0x4e75e839ec08b136ull},
    {"pokec-s", 1, 11, 0, 47, 528, 0xcf77acb65d5b6b3dull},
    {"pokec-s", 1, 11, 1, 54, 738, 0xb85ba85d83850726ull},
    {"pokec-s", 1, 11, 2, 47, 528, 0xcf77acb65d5b6b3dull},
    {"pokec-s", 1, 11, 3, 47, 528, 0xcf77acb65d5b6b3dull},
    {"pokec-s", 4, 16, 0, 0, 0, 0xcbf29ce484222325ull},
    {"pokec-s", 4, 16, 1, 37, 654, 0x4f879a999c76f812ull},
    {"pokec-s", 4, 16, 2, 0, 0, 0xcbf29ce484222325ull},
    {"pokec-s", 4, 16, 3, 0, 0, 0xcbf29ce484222325ull},
    {"aminer-s", 1, 11, 0, 22, 231, 0xa57867d85c64d20bull},
    {"aminer-s", 1, 11, 1, 22, 231, 0xa57867d85c64d20bull},
    {"aminer-s", 1, 11, 2, 22, 231, 0xa57867d85c64d20bull},
    {"aminer-s", 1, 11, 3, 22, 231, 0xa57867d85c64d20bull},
    {"aminer-s", 4, 11, 0, 22, 231, 0x432d40ca2872d894ull},
    {"aminer-s", 4, 11, 1, 22, 231, 0x432d40ca2872d894ull},
    {"aminer-s", 4, 11, 2, 22, 231, 0x432d40ca2872d894ull},
    {"aminer-s", 4, 11, 3, 22, 231, 0x432d40ca2872d894ull},
};

inline ReductionOptions StageOptions(int stages) {
  switch (stages) {
    case 1: return {true, false, false};
    case 2: return {false, true, false};
    case 3: return {false, false, true};
    default: return {true, true, true};
  }
}

inline uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline uint64_t ReducedGraphHash(const ReductionPipelineResult& r) {
  uint64_t h = 14695981039346656037ull;
  for (const Edge& e : r.reduced.edges()) {
    h = Fnv1a(&e.u, sizeof(e.u), h);
    h = Fnv1a(&e.v, sizeof(e.v), h);
  }
  for (VertexId v : r.original_ids) h = Fnv1a(&v, sizeof(v), h);
  return h;
}

}  // namespace reduction_golden
}  // namespace fairclique

#endif  // FAIRCLIQUE_TESTS_REDUCTION_GOLDEN_H_
