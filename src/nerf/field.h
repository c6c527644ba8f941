/**
 * @file
 * Backend-polymorphic serveable radiance field. The serve layer
 * (registry, scheduler, reprojection) and the const render paths
 * (parallel_render) talk to this interface instead of a concrete
 * model, so the hash-grid, frequency-encoded, and TensoRF
 * backends all ride the same deployment stack: registry load / retry /
 * breaker, hot-swap, LRU eviction + single-flight reload, the deadline
 * ladder, reprojection sessions, tracing, and per-tenant QoS.
 *
 * The contract is intentionally tiny: a backend tag, the parameter
 * count (memory accounting), and two *const, thread-safe* batched
 * evaluation entry points. Each call allocates its own scratch, which
 * matches the existing cost model — the tiled renderer already built a
 * fresh batch workspace per row-tile rect.
 */

#ifndef FUSION3D_NERF_FIELD_H_
#define FUSION3D_NERF_FIELD_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "common/quant.h"
#include "common/vec.h"

namespace fusion3d::nerf
{

/** Which radiance-field backend an artifact / serve entry holds. */
enum class BackendKind : std::uint32_t
{
    hashGrid = 0, ///< Instant-NGP hash-grid NerfModel (.f3dm v2 payload)
    freqNerf = 1, ///< frequency-encoded pure-MLP FreqNerfModel
    tensorf = 2,  ///< CP-factorized TensorfModel
};

/** Stable lowercase name of a backend kind (logs, JSON, bench output). */
const char *backendKindName(BackendKind kind);

/** A read-only radiance field any backend can expose for serving. */
class ServeableField
{
  public:
    virtual ~ServeableField() = default;

    virtual BackendKind kind() const = 0;

    /** Total trainable parameter count (registry memory accounting). */
    virtual std::size_t paramCount() const = 0;

    /**
     * Batched density+color evaluation. Thread-safe: the call uses only
     * call-local scratch, so any number of render tiles may evaluate
     * the same field concurrently. Per sample the arithmetic is
     * bit-exact with the backend's scalar forward path.
     *
     * @param positions Sample positions in [0,1]^3.
     * @param dirs      Unit view direction per sample (same length).
     * @param sigmas    Receives positions.size() activated densities.
     * @param rgbs      Receives positions.size() activated colors.
     */
    virtual void evalBatch(std::span<const Vec3f> positions,
                           std::span<const Vec3f> dirs, std::span<float> sigmas,
                           std::span<Vec3f> rgbs) const = 0;

    /**
     * Batched density-only evaluation (occupancy-gate rebuilds).
     * Thread-safe and bit-exact per sample with the scalar density
     * query, so a gate rebuilt through this path equals the gate the
     * training pipeline maintained.
     */
    virtual void evalDensityBatch(std::span<const Vec3f> positions,
                                  std::span<float> sigmas) const = 0;

    /**
     * Bytes of resident parameter storage — the registry's memory-
     * budget accounting unit. Defaults to fp32 (paramCount() * 4);
     * backends with packed weight images report their actual footprint.
     */
    virtual std::size_t residentBytes() const
    {
        return paramCount() * sizeof(float);
    }

    /** Numeric format evalBatch reads weights in (fp32 by default). */
    virtual QuantMode quantMode() const { return QuantMode::fp32; }

    /**
     * Switch this field's inference weights to @p mode, releasing the
     * fp32 masters for non-fp32 modes. Returns false if the backend
     * does not support quantization (the default) or the field borrows
     * its model; the field then keeps serving fp32.
     */
    virtual bool applyQuantMode(QuantMode mode)
    {
        return mode == QuantMode::fp32;
    }
};

/** Backends with packed inference weights (the hash grid) expose
 *  these; PointServeField forwards the quant/resident-bytes hooks to
 *  them and serves every other backend as fp32. */
template <class ModelT>
concept QuantizableModel = requires(ModelT &m, const ModelT &c, QuantMode mode) {
    m.setInferenceQuant(mode);
    { c.inferenceQuantMode() } -> std::same_as<QuantMode>;
    { c.hasFp32Weights() } -> std::same_as<bool>;
    { c.residentParamBytes() } -> std::same_as<std::size_t>;
};

/**
 * ServeableField over any PointPipeline-compatible model with the
 * batched contract (`makeBatchWorkspace` / `forwardPointBatch` /
 * `queryDensityBatch`, all const). Owns the model when constructed from
 * a unique_ptr, or borrows a caller-owned model that must outlive the
 * field. Header-only so each backend instantiates it next to its model
 * type; `HashGridServeField`, `FreqServeField` and `TensorfServeField`
 * are the aliases the serve/serialize layers use.
 */
template <class ModelT>
class PointServeField : public ServeableField
{
  public:
    explicit PointServeField(std::unique_ptr<ModelT> model)
        : owned_(std::move(model))
    {}
    explicit PointServeField(const ModelT &model) : borrowed_(&model) {}

    BackendKind kind() const override { return ModelT::kBackendKind; }
    std::size_t paramCount() const override { return model().paramCount(); }

    void
    evalBatch(std::span<const Vec3f> positions, std::span<const Vec3f> dirs,
              std::span<float> sigmas, std::span<Vec3f> rgbs) const override
    {
        typename ModelT::BatchWorkspace ws = model().makeBatchWorkspace();
        model().forwardPointBatch(positions, dirs, ws, sigmas, rgbs);
    }

    void
    evalDensityBatch(std::span<const Vec3f> positions,
                     std::span<float> sigmas) const override
    {
        typename ModelT::BatchWorkspace ws = model().makeBatchWorkspace();
        model().queryDensityBatch(positions, ws, sigmas);
    }

    std::size_t
    residentBytes() const override
    {
        if constexpr (QuantizableModel<ModelT>)
            return model().residentParamBytes();
        else
            return ServeableField::residentBytes();
    }

    QuantMode
    quantMode() const override
    {
        if constexpr (QuantizableModel<ModelT>)
            return model().inferenceQuantMode();
        else
            return ServeableField::quantMode();
    }

    bool
    applyQuantMode(QuantMode mode) override
    {
        if constexpr (QuantizableModel<ModelT>) {
            // A borrowed model can't be mutated; once the fp32 masters
            // are dropped the mode is pinned. Both cases succeed only
            // as no-ops.
            if (!owned_ || !owned_->hasFp32Weights())
                return model().inferenceQuantMode() == mode;
            owned_->setInferenceQuant(mode);
            return true;
        } else {
            return ServeableField::applyQuantMode(mode);
        }
    }

    const ModelT &
    model() const
    {
        return owned_ ? static_cast<const ModelT &>(*owned_) : *borrowed_;
    }
    /** Owning fields only (artifact save paths); null when borrowing. */
    ModelT *mutableModel() { return owned_.get(); }

  private:
    std::unique_ptr<ModelT> owned_;
    const ModelT *borrowed_ = nullptr;
};

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_FIELD_H_
