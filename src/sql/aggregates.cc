#include "sql/aggregates.h"

namespace minerule::sql {

AggAccumulator::AggAccumulator(AggFunc func, bool distinct)
    : func_(func), distinct_(distinct) {}

Status AggAccumulator::Add(const Value& value) {
  if (func_ == AggFunc::kCountStar) {
    ++count_;
    return Status::OK();
  }
  if (value.is_null()) return Status::OK();
  if (distinct_) {
    std::string key;
    EncodeKeyValue(value, &key);
    if (!seen_.Insert(key).second) return Status::OK();
  }
  switch (func_) {
    case AggFunc::kCount:
      ++count_;
      return Status::OK();
    case AggFunc::kSum:
    case AggFunc::kAvg: {
      if (!value.is_numeric()) {
        return Status::TypeError("SUM/AVG over non-numeric value");
      }
      ++count_;
      if (value.type() == DataType::kInteger) {
        // Signed overflow is UB; on overflow abandon the exact integer sum
        // and fall back to the double accumulator (kept in parallel below).
        if (all_integers_ &&
            __builtin_add_overflow(int_sum_, value.AsInteger(), &int_sum_)) {
          all_integers_ = false;
        }
      } else {
        all_integers_ = false;
      }
      double_sum_ += value.AsDouble();
      return Status::OK();
    }
    case AggFunc::kMin: {
      ++count_;
      if (min_.is_null()) {
        min_ = value;
      } else {
        MR_ASSIGN_OR_RETURN(int cmp, value.SqlCompare(min_));
        if (cmp < 0) min_ = value;
      }
      return Status::OK();
    }
    case AggFunc::kMax: {
      ++count_;
      if (max_.is_null()) {
        max_ = value;
      } else {
        MR_ASSIGN_OR_RETURN(int cmp, value.SqlCompare(max_));
        if (cmp > 0) max_ = value;
      }
      return Status::OK();
    }
    case AggFunc::kCountStar:
      break;
  }
  return Status::Internal("unhandled aggregate in Add");
}

bool AggAccumulator::MergeIsExact(AggFunc func) {
  switch (func) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return true;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      return false;
  }
  return false;
}

Status AggAccumulator::Merge(const AggAccumulator& other) {
  if (!MergeIsExact(func_)) {
    return Status::Internal("Merge called on an order-sensitive aggregate");
  }
  if (distinct_ && func_ != AggFunc::kCountStar) {
    // The encoding folds values that compare equal (INTEGER 1 vs DOUBLE
    // 1.0), so the union counts each equality class once.
    for (uint32_t id = 0; id < other.seen_.size(); ++id) {
      seen_.Insert(other.seen_.key(id));
    }
    count_ = static_cast<int64_t>(seen_.size());
  } else {
    count_ += other.count_;
  }
  // `other` covers a later input range, so on SqlCompare ties the value
  // already held here wins — exactly the serial "replace only on strict
  // inequality" behaviour.
  if (!other.min_.is_null()) {
    if (min_.is_null()) {
      min_ = other.min_;
    } else {
      MR_ASSIGN_OR_RETURN(int cmp, other.min_.SqlCompare(min_));
      if (cmp < 0) min_ = other.min_;
    }
  }
  if (!other.max_.is_null()) {
    if (max_.is_null()) {
      max_ = other.max_;
    } else {
      MR_ASSIGN_OR_RETURN(int cmp, other.max_.SqlCompare(max_));
      if (cmp > 0) max_ = other.max_;
    }
  }
  return Status::OK();
}

Result<Value> AggAccumulator::Finish() const {
  switch (func_) {
    case AggFunc::kCountStar:
    case AggFunc::kCount:
      return Value::Integer(count_);
    case AggFunc::kSum:
      if (count_ == 0) return Value::Null();
      if (all_integers_) return Value::Integer(int_sum_);
      return Value::Double(double_sum_);
    case AggFunc::kAvg:
      if (count_ == 0) return Value::Null();
      return Value::Double(double_sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
  }
  return Status::Internal("unhandled aggregate in Finish");
}

}  // namespace minerule::sql
