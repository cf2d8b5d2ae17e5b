// Umbrella header: the full ntserv public API.
//
// ntserv is a modeling and simulation library for near-threshold server
// processors, reproducing Pahlevan et al., "Towards Near-Threshold Server
// Processors" (DATE 2016). The docs/ pages cover the request-level
// layers: datacenter.md (fleets and scenarios), control.md, reliability.md,
// orchestration.md, observability.md and performance.md.
#pragma once

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/units.hpp"

#include "tech/body_bias.hpp"
#include "tech/technology.hpp"

#include "power/cacti_lite.hpp"
#include "power/dram_power.hpp"
#include "power/server_power.hpp"
#include "power/uncore_power.hpp"

#include "dram/dram_system.hpp"

#include "cache/cluster_memory.hpp"

#include "cpu/ooo_core.hpp"

#include "workload/bitbrains.hpp"
#include "workload/profile.hpp"
#include "workload/synthetic.hpp"

#include "sim/cluster.hpp"
#include "sim/sampling.hpp"
#include "sim/server_sim.hpp"
#include "sim/thread_pool.hpp"

#include "qos/qos.hpp"

#include "obs/obs.hpp"

#include "fault/fault.hpp"

#include "ctrl/admission.hpp"
#include "ctrl/budget.hpp"
#include "ctrl/governor.hpp"

#include "orch/orch.hpp"

#include "dc/arrival.hpp"
#include "dc/chip.hpp"
#include "dc/fleet.hpp"
#include "dc/latency_stats.hpp"
#include "dc/runner.hpp"
#include "dc/scenario.hpp"

#include "dse/dse.hpp"

#include "thermal/thermal.hpp"

#include "pm/power_manager.hpp"
