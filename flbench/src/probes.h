// Calibration probes timed after a traced run, through public calls only:
// the per-byte path a model takes on the wire, the host's fsync latency, and
// the host fingerprint every result carries.
#pragma once

#include <string>
#include <vector>

#include "nn/state_dict.h"
#include "report.h"

namespace flbench {

/// Times HMAC, seal/open, DXO (de)serialization and validator scoring on
/// `model` (the run's final global model). Each figure is a median.
std::vector<Metric> payload_probe(const cppflare::nn::StateDict& model);

/// Median fsync latency of a write-ahead log placed in `dir`.
Metric fsync_probe(const std::string& dir);

/// nproc, CPU model, ISA flags, compiler and build flags as a JSON object.
std::string host_fingerprint_json();

/// True when this binary was compiled with optimization.
bool optimized_build();

}  // namespace flbench
