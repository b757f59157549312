#include "lb/consistency.hpp"

#include <algorithm>

#include "lb/maglev.hpp"
#include "util/logging.hpp"

namespace klb::lb {

namespace {
constexpr const char* kLog = "klb-consistency";
}  // namespace

std::uint64_t SlotPinCounts::total() const {
  std::uint64_t n = 0;
  for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
  return n;
}

GenerationDiff::GenerationDiff(ConsistencyConfig cfg) : cfg_(cfg) {
  cfg_.history = std::max<std::size_t>(1, cfg_.history);
}

std::shared_ptr<const ExceptionFilter> GenerationDiff::on_publish(
    std::shared_ptr<const MaglevTable> table, std::uint64_t seq) {
  const auto n = table->table_size();

  if (!last_) {
    // First publish: adopt the table as the baseline. Every slot is an
    // empty -> owner transition — there are no pre-existing flows whose
    // pick could have moved, so nothing is flagged.
    last_ = std::move(table);
    prev_.assign(n, ExceptionFilter::kNoOwner);
    changed_at_.assign(n, 0);
    publishes_ = 1;
    return std::make_shared<const ExceptionFilter>(seq, n);
  }
  if (n != last_->table_size()) {
    // Table geometry changed under us (a policy swap with a different
    // min_table_size): slot indexes are incomparable, so no filter — the
    // Mux falls back to pinning every flow for this generation.
    if (!disengaged_)
      util::log_warn(kLog) << "table size changed " << last_->table_size()
                           << " -> " << n << "; stateless path disengaged";
    disengaged_ = true;
    return nullptr;
  }
  disengaged_ = false;

  ++publishes_;
  if (table != last_) {
    // Owner ids truncate to 32 bits; an empty slot's kNoId truncates to
    // kNoOwner.
    for (std::size_t s = 0; s < n; ++s) {
      const auto owner = static_cast<std::uint32_t>(table->slot_owner(s));
      const auto old = static_cast<std::uint32_t>(last_->slot_owner(s));
      if (owner == old || old == ExceptionFilter::kNoOwner) continue;
      // A breaking change: flows hashed here were being served by `old`.
      // (empty -> owner transitions carry no flows and stay unflagged —
      // otherwise the very first pool fill would pin everything forever.)
      changed_at_[s] = publishes_;
      prev_[s] = old;
    }
    last_ = std::move(table);
  }

  auto filter = std::make_shared<ExceptionFilter>(seq, n);
  for (std::size_t s = 0; s < n; ++s) {
    if (changed_at_[s] == 0) continue;
    if (publishes_ - changed_at_[s] >= cfg_.history) continue;
    filter->flag(s, prev_[s]);
  }
  return filter;
}

}  // namespace klb::lb
