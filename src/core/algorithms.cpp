#include "core/algorithms.hpp"

namespace chicsim::core {

const std::vector<EsAlgorithm>& paper_es_algorithms() {
  static const std::vector<EsAlgorithm> v{
      EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobDataPresent,
      EsAlgorithm::JobLocal};
  return v;
}

const std::vector<DsAlgorithm>& paper_ds_algorithms() {
  static const std::vector<DsAlgorithm> v{
      DsAlgorithm::DataDoNothing, DsAlgorithm::DataRandom, DsAlgorithm::DataLeastLoaded};
  return v;
}

const std::vector<EsAlgorithm>& all_es_algorithms() {
  static const std::vector<EsAlgorithm> v = enum_names(EsAlgorithm{}).values();
  return v;
}

const std::vector<DsAlgorithm>& all_ds_algorithms() {
  static const std::vector<DsAlgorithm> v = enum_names(DsAlgorithm{}).values();
  return v;
}

}  // namespace chicsim::core
