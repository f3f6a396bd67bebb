// Concurrency-control schemes for the server's update engine (DESIGN.md
// §4h). The paper assumes server update transactions are serialized by
// *some* local scheme before their commits are folded into the
// control-information broadcast (§3.2.1); this enum names the two the
// TxnProcessor implements.

#ifndef BCC_SERVER_EXEC_SCHEME_H_
#define BCC_SERVER_EXEC_SCHEME_H_

#include <string_view>

#include "common/statusor.h"

namespace bcc {

/// How the server serializes its update transactions.
enum class UpdateScheme {
  kSequential,  ///< the classic single-path ServerTxnManager ordering
  kOcc,         ///< optimistic execution, backward validation at commit
};

/// Short stable name ("seq", "occ") for flags and JSON rows.
std::string_view UpdateSchemeName(UpdateScheme scheme);

/// Inverse of UpdateSchemeName (also accepts "sequential"); InvalidArgument
/// on unknown names.
StatusOr<UpdateScheme> ParseUpdateScheme(std::string_view name);

}  // namespace bcc

#endif  // BCC_SERVER_EXEC_SCHEME_H_
