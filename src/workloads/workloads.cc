#include "workloads/workloads.hh"

#include "common/logging.hh"

namespace dscalar {
namespace workloads {

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> registry = {
        {"tomcatv_s", "tomcatv", "fp",
         "2-D mesh-generation stencil, neighbour accesses", buildTomcatv},
        {"swim_s", "swim", "fp",
         "shallow-water stencil, interleaved array streams", buildSwim},
        {"hydro2d_s", "hydro2d", "fp",
         "2-D hydrodynamics, row/column sweeps", buildHydro2d},
        {"mgrid_s", "mgrid", "fp",
         "multigrid, power-of-two strided 3-D sweeps", buildMgrid},
        {"applu_s", "applu", "fp",
         "blocked SSOR solver sweeps", buildApplu},
        {"m88ksim_s", "m88ksim", "int",
         "CPU emulator: dispatch tables, guest state", buildM88ksim},
        {"turb3d_s", "turb3d", "fp",
         "3-D FFT butterflies, power-of-two strides", buildTurb3d},
        {"gcc_s", "gcc", "int",
         "IR graph walk, pointer-heavy and branchy", buildGcc},
        {"compress_s", "compress", "int",
         "LZW-style hash coder; as many stores as loads", buildCompress},
        {"li_s", "li", "int",
         "cons-cell list interpreter, small data set", buildLi},
        {"perl_s", "perl", "int",
         "string hashing into buckets", buildPerl},
        {"fpppp_s", "fpppp", "fp",
         "huge straight-line FP basic blocks (big text)", buildFpppp},
        {"wave5_s", "wave5", "fp",
         "particle-in-cell gather/scatter", buildWave5},
        {"go_s", "go", "int",
         "game-tree evaluation over board arrays", buildGo},
    };
    return registry;
}

const Workload *
lookupWorkload(const std::string &name)
{
    for (const Workload &w : allWorkloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

const Workload &
findWorkload(const std::string &name)
{
    const Workload *w = lookupWorkload(name);
    fatal_if(!w, "unknown workload '%s'", name.c_str());
    return *w;
}

const std::vector<std::string> &
timingWorkloadNames()
{
    static const std::vector<std::string> names = {
        "applu_s", "compress_s", "go_s", "mgrid_s", "turb3d_s",
        "wave5_s",
    };
    return names;
}

} // namespace workloads
} // namespace dscalar
