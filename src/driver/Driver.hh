/**
 * @file
 * Umbrella header for the experiment driver API: workload registry,
 * protocol factory, experiment builder, sweep runner and result
 * sinks.
 */

#ifndef SPMCOH_DRIVER_DRIVER_HH
#define SPMCOH_DRIVER_DRIVER_HH

#include "driver/Experiment.hh"
#include "driver/ResultSink.hh"
#include "driver/SweepRunner.hh"
#include "driver/WorkloadRegistry.hh"
#include "protocols/ProtocolFactory.hh"

#endif // SPMCOH_DRIVER_DRIVER_HH
