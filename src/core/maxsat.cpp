#include "core/maxsat.h"

namespace msu {

const char* toString(MaxSatStatus st) {
  switch (st) {
    case MaxSatStatus::Optimum:
      return "OPTIMUM";
    case MaxSatStatus::UnsatisfiableHard:
      return "UNSATISFIABLE";
    case MaxSatStatus::Unknown:
      return "UNKNOWN";
  }
  return "?";
}

MaxSatResult tooHeavyToDuplicate(const WcnfFormula& input) {
  MaxSatResult result;
  result.upperBound = input.totalSoftWeight();
  return result;
}

UnitWeightForm::UnitWeightForm(const WcnfFormula& input) {
  if (input.isUnweighted()) {
    formula_ = &input;
    return;
  }
  copy_ = input.unweighted();
  if (copy_) formula_ = &*copy_;
}

}  // namespace msu
