/**
 * @file
 * Umbrella public header for the gex library: a cycle-level GPU timing
 * simulator with preemptible exception support, reproducing "Efficient
 * Exception Handling Support for GPUs" (MICRO-50, 2017).
 *
 * Typical use:
 *
 *     gex::func::GlobalMemory mem;
 *     gex::func::Kernel k = gex::workloads::make("sgemm", mem);
 *     gex::func::FunctionalSim fsim(mem);
 *     gex::trace::KernelTrace tr = fsim.run(k);
 *
 *     gex::gpu::GpuConfig cfg = gex::gpu::GpuConfig::baseline();
 *     cfg.scheme = gex::gpu::Scheme::ReplayQueue;
 *     gex::gpu::Gpu gpu(cfg);
 *     auto result = gpu.run(k, tr);
 */

#ifndef GEX_GEX_HPP
#define GEX_GEX_HPP

#include "check/fuzz.hpp"
#include "check/oracle.hpp"
#include "check/sanitizer.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "config/cli.hpp"
#include "config/knob_registry.hpp"
#include "func/functional_sim.hpp"
#include "func/kernel.hpp"
#include "func/memory.hpp"
#include "gpu/config.hpp"
#include "gpu/gpu.hpp"
#include "harness/experiment.hpp"
#include "harness/journal.hpp"
#include "harness/sweep.hpp"
#include "inject/fault_model.hpp"
#include "inject/rng.hpp"
#include "isa/program.hpp"
#include "kasm/builder.hpp"
#include "kasm/parser.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/observer.hpp"
#include "obs/pipeline_view.hpp"
#include "power/overheads.hpp"
#include "vm/memory_manager.hpp"
#include "workloads/workloads.hpp"

#endif // GEX_GEX_HPP
