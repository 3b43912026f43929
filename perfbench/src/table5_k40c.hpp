// Paper reference rates for the fidelity metric.
//
// Source: S. Ashkiani, A. Davidson, U. Meyer, J. D. Owens, "GPU Multisplit",
// PPoPP 2016 (DOI 10.1145/2851141.2851169), Table 5: processing rate in
// G keys/s on an NVIDIA Tesla K40c at n = 2^25 uniform keys, for
// m = 2, 4, 8, 16, 32 buckets, key-only and key-value.
//
// The simulator's four calibrated constants per device profile were fitted
// to Tables 3 and 4 only (DESIGN.md §1).  Table 5 was not used for that
// fit, so these held-out cells are the only data here that validate the
// model; fidelity_mape_pct is measured against them and nothing else.
#pragma once

#include "multisplit/common.hpp"

namespace perfbench {

struct Table5Row {
  ms::split::Method method;
  const char* token;
  double key_only[5];
  double key_value[5];
};

inline constexpr ms::u32 kTable5Buckets[5] = {2, 4, 8, 16, 32};
inline constexpr ms::u32 kTable5PaperLog2N = 25;

inline constexpr Table5Row kTable5K40c[] = {
    {ms::split::Method::kDirect, "direct",
     {8.95, 7.88, 6.92, 5.51, 3.91}, {7.00, 6.06, 5.66, 4.19, 2.15}},
    {ms::split::Method::kWarpLevel, "warp",
     {10.04, 8.23, 6.90, 5.14, 3.69}, {7.14, 6.31, 5.40, 3.86, 2.36}},
    {ms::split::Method::kBlockLevel, "block",
     {6.29, 5.84, 5.64, 4.95, 4.51}, {5.56, 5.11, 4.95, 4.50, 3.93}},
    {ms::split::Method::kReducedBitSort, "reduced_bit",
     {4.64, 4.60, 4.51, 4.34, 3.85}, {2.46, 2.44, 2.39, 2.13, 1.84}},
};

}  // namespace perfbench
