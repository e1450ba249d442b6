#include "seedselect/select.hpp"

namespace eimm {

SelectionResult efficient_select(const RRRPoolView& pool,
                                 CounterArray& counters,
                                 const SelectionOptions& options) {
  return efficient_select_t<NullMem>(pool, counters, options);
}

SelectionResult ripples_select(const RRRPoolView& pool,
                               const SelectionOptions& options) {
  return ripples_select_t<NullMem>(pool, options);
}

}  // namespace eimm
