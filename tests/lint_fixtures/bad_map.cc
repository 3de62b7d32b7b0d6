// Bad fixture for hot-path-map: node-based std maps in what lints as a
// sim/core/shard hot-path file. Four findings: the two includes and the two
// member declarations.
#include <map>
#include <unordered_map>

struct BadMaps {
  std::unordered_map<int, double> per_query;
  std::map<int, double> ordered_index;
};
