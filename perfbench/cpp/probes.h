#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "common.h"
#include "data/sample.h"
#include "vlm/foundation_model.h"

namespace perfbench {

// Per-layer probes of the traced run. Each times public calls from the
// outside (inside spans named after the metric) on inputs made from `seed`,
// at a thread count of its own, and adds its metrics to `out`. Every
// workload's traced run runs all of them (`LayerProbes`), so every workload
// reports every per-layer metric, measured the same way.

/// Timed calls per probe, after one untimed call.
inline constexpr int kProbeReps = 9;

/// `tensor.*`: MatMulInto at the vision tower's im2col and projection
/// shapes and the trunk shape (batch 8, so 16 frames), Im2ColInto at the
/// two conv shapes, GeluInto/ReluInto at the trunk width. 1 thread.
void KernelProbe(Tracer* tracer, Outcome* out);

/// `cot.predict_*`, `cot.vision_passes`, `vlm.embed_pair_us.*`,
/// `vlm.pack_us`, `vlm.assess_frames_us` and `nn.allocs_per_predict` on the
/// served model and videos it has never seen. 1 thread.
void ModelProbe(const vsd::vlm::FoundationModel& model, uint64_t seed,
                Tracer* tracer, Outcome* out);

/// `vlm.describe_loss_ms`, `tensor.backward_ms`, `nn.adam_step_ms` and
/// `vlm.precompute_ms` on a clone of `base`, over a fit split made from
/// `seed`, and `cot.fit_dpo_pairs` of one fit on that split. 1 thread.
void TrainProbe(const vsd::vlm::FoundationModel& base, uint64_t seed,
                Tracer* tracer, Outcome* out);

/// `cot.run_fresh_us`, `img.slic_ms`, `explain.*` and `common.pool_eff`:
/// chain and lime ops on unseen videos, as explain_fig6 runs them.
/// 2 threads. Defined in explain_workload.cc.
void ExplainProbe(const vsd::vlm::FoundationModel& model, uint64_t seed,
                  Tracer* tracer, Outcome* out);

/// `serve.*` and `router.*`: a short open-loop pass (light, then heavy)
/// through a Router and ReplicaPool built as serve_open_loop builds them,
/// with its output check. 1 thread. Defined in serve_workload.cc.
void ServeProbe(const vsd::vlm::FoundationModel& model, uint64_t seed,
                Tracer* tracer, Outcome* out);

/// Every probe above, with `tracer` enabled.
void LayerProbes(const vsd::vlm::FoundationModel& model, uint64_t seed,
                 Tracer* tracer, Outcome* out);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
