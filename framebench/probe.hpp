#pragma once
// Host-speed probe. The benchmark was tuned on a shared 4-vCPU VM whose
// speed drifted by up to 30% over minutes as neighbours loaded the host;
// every timing in a run drifted with it, so runs taken minutes apart
// disagreed by more than any useful regression bound. Each pass times this
// fixed computation, which calls no erpd code (no change to the system can
// move it), and a run's end-to-end times are scaled by
// kProbeReferenceMs / median(probe times): times as they would read at the
// host's reference speed. On that VM the probe tracked the workloads'
// frame times with correlation 0.73 and the scaling halved the
// run-to-run spread.

namespace framebench {

/// Median probe time on the development host (4-vCPU VM, RelWithDebInfo).
inline constexpr double kProbeReferenceMs = 36.0;

/// Time one run of the probe, in milliseconds.
double probe_ms();

}  // namespace framebench
