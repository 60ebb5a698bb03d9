#include "eth/transaction.hpp"

#include <unordered_set>

namespace ethshard::eth {

bool Transaction::well_formed() const {
  if (calls.empty()) return false;
  if (calls.front().from != sender) return false;
  std::unordered_set<AccountId> touched;
  touched.insert(sender);
  for (const Call& c : calls) {
    if (!touched.contains(c.from)) return false;
    touched.insert(c.to);
  }
  return true;
}

}  // namespace ethshard::eth
