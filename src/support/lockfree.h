#ifndef PS_SUPPORT_LOCKFREE_H
#define PS_SUPPORT_LOCKFREE_H

namespace ps::support {

/// Whether the analysis engine runs on a lock-free substrate. None remains:
/// the task pool and the dependence-test memo are mutex-based (DESIGN.md,
/// "One substrate"). Only the pipeline benchmark reads this, to print it in
/// its context line.
[[nodiscard]] constexpr bool lockfreeDefault() { return false; }

}  // namespace ps::support

#endif  // PS_SUPPORT_LOCKFREE_H
