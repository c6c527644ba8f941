/**
 * @file
 * The point-wise Instant-NGP radiance model: hash-grid encoding feeding
 * a density MLP whose geometry features, concatenated with a spherical-
 * harmonics view encoding, feed a color MLP. This is the per-sample
 * computation Stages II and III of the Fusion-3D pipeline execute.
 */

#ifndef FUSION3D_NERF_NERF_MODEL_H_
#define FUSION3D_NERF_NERF_MODEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/vec.h"
#include "nerf/adam.h"
#include "nerf/field.h"
#include "nerf/hash_encoding.h"
#include "nerf/mlp.h"
#include "nerf/sh_encoding.h"

namespace fusion3d
{
class ThreadPool;
}

namespace fusion3d::nerf
{

/** Architecture configuration of one radiance model. */
struct NerfModelConfig
{
    HashGridConfig grid;
    /** Geometry feature channels passed from density to color net. */
    int geoFeatures = 15;
    /** Hidden width of the density MLP (one hidden layer). */
    int densityHidden = 32;
    /** Hidden width of the color MLP (one hidden layer). */
    int colorHidden = 32;
    /** Spherical-harmonics degree for the view direction (1..4). */
    int shDegree = 3;

    int shDims() const { return shCoefficientCount(shDegree); }
};

/** Density + color of one evaluated point. */
struct PointEval
{
    float sigma = 0.0f;
    Vec3f rgb;
};

/** Scratch buffers for point evaluation; reuse across calls. */
struct PointWorkspace
{
    std::vector<float> encoding;
    std::vector<float> sh;
    std::vector<float> colorIn;
    std::vector<float> dDensityOut;
    std::vector<float> dColorOut;
    MlpWorkspace densityWs;
    MlpWorkspace colorWs;
    /** Raw (pre-activation) density output cached by forwardPoint. */
    float rawSigma = 0.0f;
    /** Raw color-net outputs cached by forwardPoint. */
    float rawRgb[3] = {0.0f, 0.0f, 0.0f};
};

/**
 * Scratch buffers for batched evaluation; reuse across calls. All
 * matrices are feature-major ([dim][N], sample index fastest) to match
 * MlpBatchWorkspace; buffers grow on demand and never shrink.
 */
struct NerfBatchWorkspace
{
    /** Encoded positions, [encodedDims][N]. */
    std::vector<float> encoding;
    /** Per-point SH scratch (shDims values, reused point by point). */
    std::vector<float> sh;
    /** Color-net input, [geoFeatures + shDims][N]. */
    std::vector<float> colorIn;
    /** Raw (pre-activation) density outputs, [N]. */
    std::vector<float> rawSigma;
    /** dL/d(density-net output), [1 + geoFeatures][N]. */
    std::vector<float> dDensityOut;
    /** dL/d(color-net output), [3][N]. */
    std::vector<float> dColorOut;
    /** Recomputed activations used by backwardBatch. */
    std::vector<float> fwdSigmas;
    std::vector<Vec3f> fwdRgbs;
    MlpBatchWorkspace densityWs;
    MlpBatchWorkspace colorWs;
    /** Allocated batch capacity (samples). */
    std::size_t capacity = 0;
};

/**
 * The point-wise Instant-NGP model. Implements the PointPipeline ModelT
 * contract (point_pipeline.h), so NerfPipeline is PointPipeline<NerfModel>.
 * Beyond the contract it exposes the workspace-taking scalar oracles,
 * packed inference weights (setInferenceQuant), and the Stage-II
 * vertex-visitor hook the chip model traces through.
 */
class NerfModel
{
  public:
    using Config = NerfModelConfig;
    using BatchWorkspace = NerfBatchWorkspace;
    static constexpr BackendKind kBackendKind = BackendKind::hashGrid;
    /** PointPipelineConfig defaults: hash-table and MLP learning rates
     *  and the model seed. */
    static constexpr float kLrFactors = 1e-2f;
    static constexpr float kLrNet = 2e-3f;
    static constexpr std::uint64_t kPipelineSeed = 7;

    /**
     * One training shard's private gradients: dense buffers for both
     * MLPs plus a sparse hash-grid accumulator. Shards share no mutable
     * state, so any number can run concurrently; mergeGradients() folds
     * them into the model in a fixed order.
     */
    struct GradArena
    {
        std::vector<float> densityGrads;
        std::vector<float> colorGrads;
        HashGradAccumulator encodingGrads;
    };

    explicit NerfModel(const NerfModelConfig &cfg, std::uint64_t seed = kPipelineSeed);

    const NerfModelConfig &config() const { return cfg_; }
    HashGridEncoding &encoding() { return *encoding_; }
    const HashGridEncoding &encoding() const { return *encoding_; }
    Mlp &densityNet() { return *density_net_; }
    const Mlp &densityNet() const { return *density_net_; }
    Mlp &colorNet() { return *color_net_; }
    const Mlp &colorNet() const { return *color_net_; }

    PointWorkspace makeWorkspace() const;

    /** Allocate a batch workspace with room for @p capacity samples. */
    NerfBatchWorkspace makeBatchWorkspace(std::size_t capacity = 0) const;

    /**
     * Evaluate density and view-dependent color of one point.
     * @param pos     Position in [0,1]^3.
     * @param dir     Unit view direction.
     * @param ws      Workspace (activation cache for a following backward).
     * @param visitor Optional Stage-II vertex-access observer.
     */
    PointEval forwardPoint(const Vec3f &pos, const Vec3f &dir, PointWorkspace &ws,
                           VertexVisitor *visitor = nullptr) const;

    /** Density-only evaluation (occupancy-grid updates). */
    float queryDensity(const Vec3f &pos, PointWorkspace &ws) const;

    /**
     * Accumulate parameter gradients for a point. Recomputes the forward
     * pass internally (recompute-in-backward strategy), so it does NOT
     * require a prior forwardPoint on the same workspace.
     *
     * @param dsigma dL/d(sigma).
     * @param drgb   dL/d(rgb).
     */
    void backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma,
                       const Vec3f &drgb, PointWorkspace &ws);

    /** The scalar oracles of the ModelT contract, on an internal workspace. */
    PointEval forwardPoint(const Vec3f &pos, const Vec3f &dir)
    {
        return forwardPoint(pos, dir, point_ws_);
    }
    float queryDensity(const Vec3f &pos) { return queryDensity(pos, point_ws_); }
    void
    backwardPoint(const Vec3f &pos, const Vec3f &dir, float dsigma, const Vec3f &drgb)
    {
        backwardPoint(pos, dir, dsigma, drgb, point_ws_);
    }

    /**
     * Stage-II access-trace observer applied by forwardPointBatch. The
     * chip model installs one to replay hash accesses through the
     * banked-SRAM simulation; PointPipeline evaluates each batch unsharded
     * on the calling thread while one is attached, so the trace keeps its
     * level-major order. Pass nullptr to detach.
     */
    void setVertexVisitor(VertexVisitor *v) { visitor_ = v; }
    VertexVisitor *vertexVisitor() const { return visitor_; }

    /**
     * Evaluate density and color for a whole batch through the batched
     * encoding (level-major gather) and batched MLPs (blocked GEMM).
     * Per sample the arithmetic matches forwardPoint() bit-exactly;
     * forwardPoint stays as the reference oracle the equivalence tests
     * compare against. Emits an "nerf/forward_batch" trace span and
     * feeds the nerf.batch.* metrics.
     *
     * @param pos     Sample positions in [0,1]^3 (batch size = pos.size()).
     * @param dirs    Unit view direction per sample (same length).
     * @param ws      Batch workspace; grown as needed.
     * @param sigmas  Receives pos.size() activated densities.
     * @param rgbs    Receives pos.size() activated colors.
     */
    void forwardPointBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                           NerfBatchWorkspace &ws, std::span<float> sigmas,
                           std::span<Vec3f> rgbs) const
    {
        forwardBatch(pos, dirs, ws, sigmas, rgbs, visitor_);
    }

    /**
     * Density-only batched evaluation (occupancy-grid updates): batched
     * encode + density GEMM + activation. Bit-exact per sample with
     * queryDensity().
     */
    void queryDensityBatch(std::span<const Vec3f> pos, NerfBatchWorkspace &ws,
                           std::span<float> sigmas) const;

    /**
     * One shard's backward: recomputes the batched forward, then
     * overwrites @p arena with the shard's parameter gradients. Const,
     * so shards with private workspaces and arenas run concurrently.
     *
     * @param dsigmas dL/d(sigma) per sample.
     * @param drgbs   dL/d(rgb) per sample.
     */
    void backwardPointBatchInto(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                                std::span<const float> dsigmas,
                                std::span<const Vec3f> drgbs, NerfBatchWorkspace &ws,
                                GradArena &arena) const;

    /**
     * Add every shard's arena into the model gradients: a serial
     * pairwise tree over the MLP buffers, then the level-major sparse
     * merge for the hash grid. The order depends only on the shard
     * count, never on scheduling.
     */
    void mergeGradients(std::span<GradArena> arenas);

    /** Serial batched backward: one arena, then mergeGradients. */
    void backwardPointBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                            std::span<const float> dsigmas,
                            std::span<const Vec3f> drgbs, NerfBatchWorkspace &ws);

    /** Zero all parameter gradients (encoding and both MLPs). */
    void zeroGrads();

    /**
     * Adam step of all three blocks (the hash table skips untouched
     * entries). Every parameter updates independently, so the pool split
     * is bit-exact with the serial step. Optimizer moments are allocated
     * by the first step, so inference-only models never carry them.
     */
    void optimizerStep(float lr_table, float lr_net, ThreadPool *pool = nullptr);

    /** Fake-quantize all weights through INT8 (Table II experiment). */
    void quantizeWeights();

    /** Total trainable parameter count. */
    std::size_t paramCount() const;

    /**
     * Switch the batched inference path of all three parameter blocks
     * (hash table + both MLPs) to @p mode, building the packed weight
     * images from the fp32 masters. With @p dropFp32 (and a non-fp32
     * mode) the fp32 masters are released afterwards — the resident-
     * memory win of a quantized serve replica — at the cost of the
     * scalar/backward paths panicking from then on.
     */
    void setInferenceQuant(QuantMode mode, bool dropFp32 = true);

    /** Numeric format the batched inference path reads weights in. */
    QuantMode inferenceQuantMode() const { return encoding_->quantMode(); }

    /** True until setInferenceQuant dropped the fp32 masters. */
    bool hasFp32Weights() const { return encoding_->hasFp32Weights(); }

    /** Bytes of resident parameter storage across all blocks. */
    std::size_t residentParamBytes() const;

    /** MLP multiply-accumulates per point evaluation (forward). */
    std::uint64_t macsPerPoint() const;

    /** Density activation: sigma = exp(clamped raw). */
    static float densityActivation(float raw);
    /** Derivative of densityActivation w.r.t. raw, given the output. */
    static float densityActivationGrad(float raw, float sigma);

  private:
    void forwardBatch(std::span<const Vec3f> pos, std::span<const Vec3f> dirs,
                      NerfBatchWorkspace &ws, std::span<float> sigmas,
                      std::span<Vec3f> rgbs, VertexVisitor *visitor) const;

    NerfModelConfig cfg_;
    std::unique_ptr<HashGridEncoding> encoding_;
    std::unique_ptr<Mlp> density_net_;
    std::unique_ptr<Mlp> color_net_;
    PointWorkspace point_ws_;
    VertexVisitor *visitor_ = nullptr;
    /** Table, density-net and color-net moments (empty until trained). */
    std::vector<Adam> adam_;
    /** Scratch pointer list handed to HashGridEncoding::mergeGradShards. */
    std::vector<HashGradAccumulator *> merge_ptrs_;
};

/** Serveable-field wrapper over the hash-grid model. */
using HashGridServeField = PointServeField<NerfModel>;

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_NERF_MODEL_H_
