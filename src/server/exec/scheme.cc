#include "server/exec/scheme.h"

#include <string>

namespace bcc {

std::string_view UpdateSchemeName(UpdateScheme scheme) {
  switch (scheme) {
    case UpdateScheme::kSequential:
      return "seq";
    case UpdateScheme::kOcc:
      return "occ";
  }
  return "unknown";
}

StatusOr<UpdateScheme> ParseUpdateScheme(std::string_view name) {
  if (name == "seq" || name == "sequential") return UpdateScheme::kSequential;
  if (name == "occ") return UpdateScheme::kOcc;
  return Status::InvalidArgument("unknown update scheme '" + std::string(name) +
                                 "' (expected seq|occ)");
}

}  // namespace bcc
