// Private number readers: "-1" wraps through stoull, strtod reads "nan",
// atoi returns 0 on garbage. All four calls must be flagged.
// expect: oxmlc-one-literal-reader
#include <cstdlib>
#include <string>

double read_fields(const std::string& count, char** argv) {
  return static_cast<double>(std::stoull(count, nullptr, 0) + atoi(argv[2])) +
         std::stod(count) + strtod(argv[1], nullptr);
}
