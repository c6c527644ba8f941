/**
 * @file
 * Frequency-encoded (vanilla) NeRF: sinusoidal positional encoding into
 * a pure-MLP radiance field — the algorithm family MetaVRain [13]
 * accelerates ("NeRF Algorithm: MLP" in Table III). Included so the
 * algorithm-comparison bench can show *why* the hash-grid pipeline is
 * the right substrate for instant training: the MLP field needs far
 * more compute per point and converges far slower.
 */

#ifndef FUSION3D_NERF_FREQ_NERF_H_
#define FUSION3D_NERF_FREQ_NERF_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/vec.h"
#include "nerf/adam.h"
#include "nerf/field.h"
#include "nerf/mlp.h"
#include "nerf/nerf_model.h"
#include "nerf/point_pipeline.h"

namespace fusion3d::nerf
{

/** Architecture of the frequency-encoded model. */
struct FreqNerfConfig
{
    /** Positional-encoding octaves for positions (NeRF uses 10). */
    int posFrequencies = 6;
    /** Hidden width of the density trunk. */
    int hidden = 64;
    /** Hidden layers of the density trunk (vanilla NeRF uses 8). */
    int trunkLayers = 3;
    /** Geometry features handed to the color head. */
    int geoFeatures = 15;
    /** Hidden width of the color head. */
    int colorHidden = 32;
    /** Spherical-harmonics degree for view directions. */
    int shDegree = 2;

    int shDims() const { return shCoefficientCount(shDegree); }
    /** Encoded position dimensionality: identity + sin/cos pairs. */
    int posDims() const { return 3 + 3 * 2 * posFrequencies; }
};

/**
 * Sinusoidal positional encoding: gamma(p) = (p, sin(2^k pi p),
 * cos(2^k pi p)) for k in [0, frequencies).
 */
void freqEncode(const Vec3f &p, int frequencies, std::span<float> out);

/**
 * Batched-evaluation scratch of FreqNerfModel; reuse across calls. All
 * matrices are feature-major ([dim][N], sample index fastest) to match
 * MlpBatchWorkspace; buffers grow on demand and never shrink.
 */
struct FreqNerfBatchWorkspace
{
    /** Encoded positions, [posDims][N]. */
    std::vector<float> encoded;
    /** Per-point SH scratch (shDims values, reused point by point). */
    std::vector<float> sh;
    /** Color-net input, [geoFeatures + shDims][N]. */
    std::vector<float> colorIn;
    /** Raw (pre-activation) trunk density outputs, [N]. */
    std::vector<float> rawSigma;
    /** dL/d(trunk output), [1 + geoFeatures][N]. */
    std::vector<float> dTrunkOut;
    /** dL/d(color-net output), [3][N]. */
    std::vector<float> dColorOut;
    /** Recomputed activations used by the batched backward. */
    std::vector<float> fwdSigmas;
    std::vector<Vec3f> fwdRgbs;
    MlpBatchWorkspace trunkWs;
    MlpBatchWorkspace colorWs;
};

/** The pure-MLP radiance model (PointPipeline-compatible). */
class FreqNerfModel
{
  public:
    using Config = FreqNerfConfig;
    using BatchWorkspace = FreqNerfBatchWorkspace;
    /** One shard's flat gradients: trunk block, then color-net block. */
    using GradArena = std::vector<float>;
    static constexpr BackendKind kBackendKind = BackendKind::freqNerf;
    /** PointPipelineConfig defaults: trunk and color-net learning rates
     *  and the model seed. */
    static constexpr float kLrFactors = 2e-2f;
    static constexpr float kLrNet = 2e-3f;
    static constexpr std::uint64_t kPipelineSeed = 31;

    explicit FreqNerfModel(const FreqNerfConfig &cfg, std::uint64_t seed = 41);

    const FreqNerfConfig &config() const { return cfg_; }

    PointEval forwardPoint(const Vec3f &pos, const Vec3f &dir);
    float queryDensity(const Vec3f &pos);
    void backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma,
                       const Vec3f &drgb);
    void zeroGrads();
    void optimizerStep(float lr_trunk, float lr_color, ThreadPool *pool = nullptr);
    void quantizeWeights();
    std::size_t paramCount() const;

    /** Allocate a batch workspace for the batched entry points. */
    BatchWorkspace makeBatchWorkspace() const { return BatchWorkspace{}; }

    /**
     * Batched forward: vectorizable frequency encode into a
     * feature-major matrix, one trunk Mlp::forwardBatch, SH encode +
     * feature gather, one color-net forwardBatch. Per sample the
     * arithmetic matches forwardPoint() bit-exactly; const and
     * workspace-local, so shards may run concurrently.
     */
    void forwardPointBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                           BatchWorkspace &ws, std::span<float> sigmas,
                           std::span<Vec3f> rgbs) const;

    /** Batched density-only forward; bit-exact with queryDensity(). */
    void queryDensityBatch(std::span<const Vec3f> pos, BatchWorkspace &ws,
                           std::span<float> sigmas) const;

    /**
     * One shard's backward: recomputes the forward internally
     * (recompute-in-backward) and overwrites @p grads with the shard's
     * weight gradients, summed sample-ascending. Const, so shards with
     * private workspaces and arenas run concurrently.
     */
    void backwardPointBatchInto(std::span<const Vec3f> pos,
                                std::span<const Vec3f> dirs,
                                std::span<const float> dsigmas,
                                std::span<const Vec3f> drgbs, BatchWorkspace &ws,
                                GradArena &grads) const;

    /** Add every shard's arena into the internal grads, shard-ascending. */
    void mergeGradients(std::span<GradArena> arenas);

    /** Serial batched backward: one arena, then mergeGradients. */
    void backwardPointBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                            std::span<const float> dsigmas,
                            std::span<const Vec3f> drgbs, BatchWorkspace &ws);

    /** MLP MACs per point — the compute-cost gap vs hash-grid NeRF. */
    std::uint64_t macsPerPoint() const;

    const Mlp &trunk() const { return *trunk_; }
    Mlp &trunk() { return *trunk_; }
    const Mlp &colorNet() const { return *color_net_; }
    Mlp &colorNet() { return *color_net_; }

  private:
    FreqNerfConfig cfg_;
    std::unique_ptr<Mlp> trunk_;
    std::unique_ptr<Mlp> color_net_;
    Adam adam_trunk_;
    Adam adam_color_;

    std::vector<float> encoded_;
    std::vector<float> sh_;
    std::vector<float> color_in_;
    std::vector<float> dtrunk_out_;
    std::vector<float> dcolor_out_;
    MlpWorkspace trunk_ws_;
    MlpWorkspace color_ws_;
    float raw_sigma_ = 0.0f;
};

/** Vanilla-NeRF pipeline: generic point pipeline over the MLP model. */
using FreqPipelineConfig = PointPipelineConfig<FreqNerfModel>;
using FreqPipeline = PointPipeline<FreqNerfModel>;

/** Serveable-field wrapper over the MLP model. */
using FreqServeField = PointServeField<FreqNerfModel>;

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_FREQ_NERF_H_
