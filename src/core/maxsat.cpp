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

}  // namespace msu
