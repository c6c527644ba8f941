/**
 * @file
 * The complete single-model NeRF pipeline: Stage I (sampling through the
 * occupancy gate), Stage II (hash-grid feature interpolation), and
 * Stage III (MLP + volumetric compositing), with training support.
 * This is the workload one Fusion-3D chip executes end to end; it is
 * the generic PointPipeline over the hash-grid NerfModel.
 */

#ifndef FUSION3D_NERF_PIPELINE_H_
#define FUSION3D_NERF_PIPELINE_H_

#include "nerf/nerf_model.h"
#include "nerf/point_pipeline.h"

namespace fusion3d::nerf
{

/** Hash-grid pipeline configuration (defaults from NerfModel). */
using PipelineConfig = PointPipelineConfig<NerfModel>;

/** Single-model hash-grid pipeline implementing RadianceField. */
using NerfPipeline = PointPipeline<NerfModel>;

} // namespace fusion3d::nerf

#endif // FUSION3D_NERF_PIPELINE_H_
