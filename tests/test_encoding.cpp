// Cheetah coefficient encoding: correctness of the polynomial convolution
// against direct conv2d, channel tiling, weight sparsity structure, and the
// analytic layer-tiling planner.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "encoding/encoder.hpp"
#include "encoding/tiling.hpp"
#include "tensor/quant.hpp"

namespace flash::encoding {
namespace {

class EncodingConv : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(EncodingConv, MatchesDirectConv) {
  const auto [c, hw, k] = GetParam();
  std::mt19937_64 rng(c * 100 + hw * 10 + k);
  const tensor::Tensor3 x = tensor::random_activations(c, hw, hw, 5, rng);
  const tensor::Tensor4 w = tensor::random_weights(3, c, k, 4, rng);
  const std::size_t n = 1024;
  const tensor::Tensor3 expect = tensor::conv2d(x, w, {1, 0});
  const tensor::Tensor3 got = conv2d_via_encoding(x, w, n);
  EXPECT_EQ(got.data(), expect.data());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncodingConv,
    ::testing::Values(std::make_tuple(std::size_t{1}, std::size_t{8}, std::size_t{3}),
                      std::make_tuple(std::size_t{4}, std::size_t{8}, std::size_t{3}),
                      std::make_tuple(std::size_t{2}, std::size_t{16}, std::size_t{5}),
                      std::make_tuple(std::size_t{16}, std::size_t{7}, std::size_t{3}),
                      std::make_tuple(std::size_t{8}, std::size_t{10}, std::size_t{1}),
                      // forces multiple channel tiles: 8 * 81 > 1024 - slack
                      std::make_tuple(std::size_t{24}, std::size_t{9}, std::size_t{3})));

TEST(Encoding, RectangularKernelMatchesDirectConv) {
  // Stride phases produce non-square kernels; the encoder must handle them.
  std::mt19937_64 rng(123);
  const tensor::Tensor3 x = tensor::random_activations(3, 9, 11, 4, rng);
  for (auto [kh, kw] : {std::pair<std::size_t, std::size_t>{2, 3},
                        std::pair<std::size_t, std::size_t>{4, 1},
                        std::pair<std::size_t, std::size_t>{1, 5}}) {
    tensor::Tensor4 w(2, 3, kh, kw);
    std::uniform_int_distribution<tensor::i64> dist(-7, 7);
    for (auto& v : w.data()) v = dist(rng);
    const tensor::Tensor3 got = conv2d_via_encoding(x, w, 1024);
    const tensor::Tensor3 expect = tensor::conv2d(x, w, {1, 0});
    EXPECT_EQ(got.data(), expect.data()) << kh << "x" << kw;
  }
}

TEST(Tiling, PatchSidesArePowersOfTwo) {
  for (const auto& layer : tensor::resnet50_conv_layers()) {
    const LayerTiling t = plan_layer(layer, 4096);
    EXPECT_EQ(t.patch_h & (t.patch_h - 1), 0u) << layer.name;
    EXPECT_EQ(t.patch_h, t.patch_w) << layer.name;
    EXPECT_GE(t.patch_h, t.sub_k) << layer.name;
  }
}

TEST(Encoding, GeometryCapacity) {
  // 1024-degree poly, 8x8 patches, k=3: slack = 2*8+2 = 18;
  // (1024-18)/64 = 15 channels fit.
  ConvGeometry g{1024, 32, 8, 8, 3};
  EXPECT_EQ(g.channels_per_poly(), 15u);
  EXPECT_EQ(g.channel_tiles(), 3u);  // ceil(32/15)
  EXPECT_EQ(g.out_h(), 6u);
}

TEST(Encoding, GeometryTooLarge) {
  ConvGeometry g{256, 1, 32, 32, 3};  // 1024-coeff patch in 256-degree poly
  EXPECT_EQ(g.channels_per_poly(), 0u);
  EXPECT_THROW(ConvEncoder(256, 1, 32, 32, 3), std::invalid_argument);
}

TEST(Encoding, WeightPatternStructure) {
  ConvEncoder enc(1024, 4, 8, 8, 3);
  const auto pattern = enc.weight_pattern();
  EXPECT_EQ(pattern.weight(), 4u * 9u);  // cpp * k * k
  EXPECT_GT(pattern.sparsity(), 0.96);
  // Nonzeros live at channel stripes: local*64 + i*8 + j with i,j < 3.
  for (std::size_t p : pattern.nonzeros()) {
    const std::size_t within = p % 64;
    EXPECT_LT(within % 8, 3u);
    EXPECT_LT(within / 8, 3u);
  }
}

TEST(Encoding, EncodedWeightMatchesPattern) {
  std::mt19937_64 rng(77);
  ConvEncoder enc(1024, 4, 8, 8, 3);
  tensor::Tensor4 w = tensor::random_weights(1, 4, 3, 4, rng);
  // Ensure no zero weights so value pattern == structural pattern.
  for (auto& v : w.data()) {
    if (v == 0) v = 1;
  }
  const auto coeffs = enc.encode_weight(w, 0, 0);
  const auto pattern = enc.weight_pattern();
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    EXPECT_EQ(coeffs[i] != 0, pattern.is_active(i)) << i;
  }
}

// The sparse writer the HConv weight phase uses must produce encode_weight's
// polynomial lifted mod t, on every tile (the last one partial), with a
// dirty output buffer, rectangular kernels and weights beyond +-t/2.
TEST(Encoding, EncodeWeightModMatchesLiftedEncodeWeight) {
  std::mt19937_64 rng(78);
  const std::uint64_t t = std::uint64_t{1} << 20;
  ConvEncoder enc(256, 7, 8, 8, 3, 2);  // 3 channels per tile: tiles of 3, 3, 1
  tensor::Tensor4 w = tensor::random_weights(2, 7, 3, 2, 6, rng);
  w.data()[0] = -static_cast<i64>(t);
  w.data()[1] = static_cast<i64>(3 * t) + 5;
  ASSERT_GT(enc.geometry().channel_tiles(), 1u);
  std::vector<std::uint64_t> out(256, ~std::uint64_t{0});
  for (std::size_t m = 0; m < 2; ++m) {
    for (std::size_t tile = 0; tile < enc.geometry().channel_tiles(); ++tile) {
      const std::vector<i64> coeffs = enc.encode_weight(w, m, tile);
      enc.encode_weight_mod(w, m, tile, t, out);
      for (std::size_t i = 0; i < out.size(); ++i) {
        const i64 r = coeffs[i] % static_cast<i64>(t);
        ASSERT_EQ(out[i], static_cast<std::uint64_t>(r < 0 ? r + static_cast<i64>(t) : r))
            << "m=" << m << " tile=" << tile << " i=" << i;
      }
    }
  }
  std::vector<std::uint64_t> short_out(128);
  EXPECT_THROW(enc.encode_weight_mod(w, 0, 0, t, short_out), std::invalid_argument);
  EXPECT_THROW(enc.encode_weight_mod(w, 2, 0, t, out), std::out_of_range);
}

TEST(Encoding, PaperSparsityClaim) {
  // Paper §III-B: H = W = 58, k = 3 for ResNet-50 -> >90% sparsity.
  const std::size_t n = 4096;
  ConvGeometry g{n, 1, 58, 58, 3};
  ASSERT_EQ(g.channels_per_poly(), 1u);
  const double sparsity = 1.0 - static_cast<double>(9) / static_cast<double>(n);
  EXPECT_GT(sparsity, 0.99);
}

TEST(Encoding, OutputPositionsDistinctAndInRange) {
  ConvEncoder enc(1024, 4, 8, 8, 3);
  const auto pos = enc.output_positions();
  EXPECT_EQ(pos.size(), 36u);  // 6x6 outputs
  std::set<std::size_t> uniq(pos.begin(), pos.end());
  EXPECT_EQ(uniq.size(), pos.size());
  for (std::size_t p : pos) EXPECT_LT(p, 1024u);
}

TEST(Tiling, SmallLayerSingleTile) {
  tensor::LayerConfig layer;
  layer.name = "toy";
  layer.in_c = 4;
  layer.in_h = layer.in_w = 8;
  layer.out_c = 8;
  layer.kernel = 3;
  layer.stride = 1;
  layer.pad = 1;
  const LayerTiling t = plan_layer(layer, 4096);
  EXPECT_EQ(t.sub_convs, 1u);
  EXPECT_EQ(t.spatial_tiles, 1u);
  EXPECT_EQ(t.channel_tiles, 1u);
  EXPECT_EQ(t.input_polys, 1u);
  EXPECT_EQ(t.weight_polys, 8u);
  EXPECT_EQ(t.weight_transforms, 8u);
  EXPECT_EQ(t.cipher_transforms, 2u);
  EXPECT_EQ(t.inverse_transforms, 16u);
}

TEST(Tiling, StridedLayerDecomposes) {
  tensor::LayerConfig layer;
  layer.name = "strided";
  layer.in_c = 16;
  layer.in_h = layer.in_w = 56;
  layer.out_c = 32;
  layer.kernel = 3;
  layer.stride = 2;
  layer.pad = 1;
  const LayerTiling t = plan_layer(layer, 4096);
  EXPECT_EQ(t.sub_convs, 4u);  // min(k,s)^2 = 4
  EXPECT_EQ(t.sub_k, 2u);      // ceil(3/2)
  EXPECT_GE(t.spatial_tiles, 1u);
}

TEST(Tiling, OneByOneStride2UsesSinglePhase) {
  tensor::LayerConfig layer;
  layer.name = "downsample";
  layer.in_c = 64;
  layer.in_h = layer.in_w = 56;
  layer.out_c = 128;
  layer.kernel = 1;
  layer.stride = 2;
  layer.pad = 0;
  const LayerTiling t = plan_layer(layer, 4096);
  EXPECT_EQ(t.sub_convs, 1u);  // a strided 1x1 touches one phase only
  EXPECT_EQ(t.sub_k, 1u);
}

TEST(Tiling, LargeLayerNeedsSpatialTiles) {
  tensor::LayerConfig layer;
  layer.name = "conv1-like";
  layer.in_c = 3;
  layer.in_h = layer.in_w = 224;
  layer.out_c = 64;
  layer.kernel = 7;
  layer.stride = 2;
  layer.pad = 3;
  const LayerTiling t = plan_layer(layer, 4096);
  EXPECT_GT(t.spatial_tiles, 1u);
  EXPECT_GT(t.weight_sparsity(), 0.9);
}

TEST(Tiling, EveryResnetLayerPlans) {
  for (std::size_t n : {std::size_t{2048}, std::size_t{4096}}) {
    for (const auto& layer : tensor::resnet50_conv_layers()) {
      const LayerTiling t = plan_layer(layer, n);
      EXPECT_GT(t.weight_transforms, 0u) << layer.name;
      EXPECT_GT(t.weight_sparsity(), 0.5) << layer.name;
    }
    for (const auto& layer : tensor::resnet18_conv_layers()) {
      EXPECT_GT(plan_layer(layer, n).weight_transforms, 0u) << layer.name;
    }
  }
}

TEST(Tiling, Resnet50TotalsMatchPaperImpliedCounts) {
  // Cross-validation against the paper's own arithmetic: CHAM's published
  // ResNet-50 latency (317.26 ms at 2.93M normalized NTT/s) implies ~929k
  // transforms; our independent tiling planner must land in the same range.
  const auto c = plan_network(tensor::resnet50_conv_layers(), 4096);
  const std::uint64_t total = c.weight_transforms + c.cipher_transforms + c.inverse_transforms;
  EXPECT_GT(total, 700'000u);
  EXPECT_LT(total, 1'100'000u);
  // And weight transforms carry ~90% of them (the Fig. 1 observation).
  EXPECT_GT(static_cast<double>(c.weight_transforms) / static_cast<double>(total), 0.8);
}

TEST(Tiling, WeightTransformsDominateNetworkCounts) {
  // The Fig. 1 observation: weight transforms outnumber activation
  // transforms by a large factor (they scale with output channels).
  const auto counts = plan_network(tensor::resnet50_conv_layers(), 4096);
  EXPECT_GT(counts.weight_transforms, 5 * counts.cipher_transforms);
}

}  // namespace
}  // namespace flash::encoding
