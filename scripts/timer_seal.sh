#!/usr/bin/env bash
# timer-seal: prove the engine, toolkit, analyses and trace crates read the
# clock only through `dpnet_obs::span` guards.
#
# A `SpanGuard` is the one timer: it reads the clock only when a recorder is
# installed or its caller will emit a duration, and every timed event takes
# its `wall_ns`/`at_ns` from the guard of the span it describes. A raw
# `Instant` or `SystemTime` in these crates would be a second timer — one
# that an unobserved run pays for and a profile cannot see.
#
# Usage: scripts/timer_seal.sh [REPO_ROOT]
# Exit 0 when sealed; exit 1 naming every offending line otherwise.
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

dirs=(
    crates/pinq/src
    crates/dpnet-toolkit/src
    crates/dpnet-analyses/src
    crates/dpnet-trace/src
)

hits=$(grep -rnwE --include='*.rs' 'Instant|SystemTime' "${dirs[@]}" 2>/dev/null)
if [ -n "$hits" ]; then
    echo "timer-seal VIOLATION: raw clock reads outside dpnet_obs::span:" >&2
    echo "$hits" | sed 's/^/  /' >&2
    echo >&2
    echo "timer-seal: time a region with a dpnet_obs::span guard instead" >&2
    echo "(span::enter / enter_with / enter_agg_with / enter_timed) and take" >&2
    echo "event timings from it (see DESIGN.md, 'Profiling')." >&2
    exit 1
fi

echo "timer-seal: OK — spans are the only timer in ${dirs[*]}"
exit 0
