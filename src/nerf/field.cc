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

} // namespace fusion3d::nerf
