#!/usr/bin/env bash
# kernel-seal: prove no module outside `pinq::kernel` constructs or mutates
# privacy-budget / partition-ledger state directly.
#
# Every ε-mutating operation lives behind `crates/pinq/src/kernel/` —
# `Accountant::charge_with`, `ChargeNode` construction, `PartitionLedger`
# internals, `ChargeMeta`, … are `pub(in crate::kernel)`. The compiler
# enforces that for the `pinq` crate itself; this gate also catches
#   * code in *other* crates reaching mutation through a future
#     accidentally-public re-export, and
#   * new privacy-critical surface added outside the kernel module.
#
# Usage: scripts/kernel_seal.sh [REPO_ROOT]
# Exit 0 when sealed; exit 1 naming every offending path otherwise.
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

# The privacy-mutating surface. Anything matching these outside the kernel
# directory is a seal violation: either a direct state mutation or a
# construction of budget/ledger plumbing that belongs inside the kernel.
patterns=(
    'ChargeNode::Root('
    'ChargeNode::Scaled'
    'ChargeNode::Combined('
    'ChargeNode::PartitionPart'
    'PartitionLedger::new('
    '.charge_with('
    '.charge_traced('
    '.refund_with('
    '.charge_child_traced('
    '.charge_parts('
    '.refund_child_with('
    '.predict_into('
    'ChargeMeta'
)

# Scan all Rust sources in the workspace except the kernel itself (and
# build output / vendored deps, which are not our code).
files=$(find src crates tests examples -name '*.rs' -type f 2>/dev/null \
    | grep -v '^crates/pinq/src/kernel/')

violations=0
for pat in "${patterns[@]}"; do
    # Fixed-string grep: the patterns contain regex metacharacters.
    hits=$(grep -nF -- "$pat" $files 2>/dev/null)
    if [ -n "$hits" ]; then
        echo "kernel-seal VIOLATION: '$pat' used outside crates/pinq/src/kernel/:" >&2
        echo "$hits" | sed 's/^/  /' >&2
        violations=1
    fi
done

if [ "$violations" -ne 0 ]; then
    echo >&2
    echo "kernel-seal: privacy-budget state must only be constructed or" >&2
    echo "mutated inside crates/pinq/src/kernel/ (see DESIGN.md, 'Privacy" >&2
    echo "kernel'). Route new charges through the pinq::kernel API." >&2
    exit 1
fi

echo "kernel-seal: OK — no budget/ledger mutation outside crates/pinq/src/kernel/"
exit 0
