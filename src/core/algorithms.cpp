#include "core/algorithms.hpp"

namespace chicsim::core {

EsAlgorithm es_from_string(const std::string& name) {
  return enum_names(EsAlgorithm{}).parse(name);
}

DsAlgorithm ds_from_string(const std::string& name) {
  return enum_names(DsAlgorithm{}).parse(name);
}

LsAlgorithm ls_from_string(const std::string& name) {
  return enum_names(LsAlgorithm{}).parse(name);
}

ReplicaSelection replica_selection_from_string(const std::string& name) {
  return enum_names(ReplicaSelection{}).parse(name);
}

NeighborScope neighbor_scope_from_string(const std::string& name) {
  return enum_names(NeighborScope{}).parse(name);
}

EsMapping es_mapping_from_string(const std::string& name) {
  return enum_names(EsMapping{}).parse(name);
}

SubmissionMode submission_mode_from_string(const std::string& name) {
  return enum_names(SubmissionMode{}).parse(name);
}

TopologyKind topology_kind_from_string(const std::string& name) {
  return enum_names(TopologyKind{}).parse(name);
}

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
