#include "nerf/field.h"

namespace fusion3d::nerf
{

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::hashGrid:
        return "hash_grid";
    case BackendKind::freqNerf:
        return "freq_nerf";
    case BackendKind::tensorf:
        return "tensorf";
    }
    return "unknown";
}

const OccupancyGrid &
ServeableField::occupancy() const
{
    // One cell, never updated: every sample passes the gate.
    static const OccupancyGrid all_occupied(1);
    return all_occupied;
}

} // namespace fusion3d::nerf
