#include "src/exec/primitive_cache.h"

#include <utility>

namespace tdp {
namespace exec {

std::shared_ptr<const JoinHashTable> PrimitiveCache::LookupJoin(
    const void* node, const std::shared_ptr<const Table>& table,
    Device device) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = joins_.find(node);
  if (it != joins_.end() && it->second.table == table &&
      it->second.device == device) {
    ++join_hits_;
    return it->second.ht;
  }
  ++join_misses_;
  return nullptr;
}

void PrimitiveCache::StoreJoin(const void* node,
                               std::shared_ptr<const Table> table,
                               Device device,
                               std::shared_ptr<const JoinHashTable> ht) {
  std::lock_guard<std::mutex> lock(mu_);
  joins_[node] = JoinSlot{std::move(table), device, std::move(ht)};
}

int64_t PrimitiveCache::join_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return join_hits_;
}

int64_t PrimitiveCache::join_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return join_misses_;
}

bool CacheableExpr(const BoundExpr& expr) {
  switch (expr.kind) {
    case BoundExprKind::kColumnRef:
    case BoundExprKind::kLiteral:
      return true;
    case BoundExprKind::kBinary: {
      const auto& b = static_cast<const BoundBinary&>(expr);
      return CacheableExpr(*b.left) && CacheableExpr(*b.right);
    }
    case BoundExprKind::kUnary:
      return CacheableExpr(*static_cast<const BoundUnary&>(expr).operand);
    case BoundExprKind::kCase: {
      const auto& c = static_cast<const BoundCase&>(expr);
      for (const auto& branch : c.branches) {
        if (!CacheableExpr(*branch.first) || !CacheableExpr(*branch.second)) {
          return false;
        }
      }
      return c.else_expr == nullptr || CacheableExpr(*c.else_expr);
    }
    case BoundExprKind::kParameter:
    case BoundExprKind::kUdfCall:
    case BoundExprKind::kVectorSim:
      return false;
  }
  return false;
}

}  // namespace exec
}  // namespace tdp
