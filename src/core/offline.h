// Offline re-analysis of archived traces.
//
// Researchers re-run inference over warts archives without the original
// vantage point (and thus without any probing): alias resolution must come
// from the traces themselves — the APAR-style analytic inference — and the
// §5.4 heuristics run unchanged. This is the workflow the paper enables by
// releasing the tool: collected once, analyzed many times.
#pragma once

#include <vector>

#include "core/apar.h"
#include "core/bdrmap.h"

namespace bdrmap::core {

// Rebuilds the border map from archived traces: APAR over the archive,
// then the default §5.4 heuristics. `inputs` are the same §5.2 datasets
// the original run used (or newer editions of them).
BdrmapResult analyze_offline(SharedTraces traces,
                             const InferenceInputs& inputs);

}  // namespace bdrmap::core
