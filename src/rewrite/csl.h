// The canonical strongly linear (CSL) query signature.
//
// The paper's methods are defined for the query class
//     query:  P(a, Y)?
//     exit:   P(X, Y) :- E(X, Y).
//     rec:    P(X, Y) :- L(X, X1), P(X1, Y1), R(Y, Y1).
// where E, L, R are database predicates ([SZ1] calls these canonical
// strongly linear) and X1, Y1 are fresh variables. CslQuery is the
// (P, E, L, R, a) signature the methods run over; RecognizeQueryShape()
// (rewrite/strongly_linear.h) extracts it from a parsed program.
#pragma once

#include <string>

#include "datalog/ast.h"
#include "storage/database.h"
#include "util/status.h"

namespace mcm::rewrite {

/// \brief The signature of a CSL query: predicate names plus the query
/// constant.
struct CslQuery {
  std::string p;  ///< recursive predicate
  std::string e;  ///< exit database predicate
  std::string l;  ///< left (binding-propagating) database predicate
  std::string r;  ///< right database predicate
  dl::Term source;  ///< the constant `a` in the query goal
  std::string answer_var;  ///< name of the free variable in the goal

  std::string ToString() const;
};

/// Create (or refresh) `swapped_name` in `db` as the column-swap of binary
/// relation `e_name`.
[[nodiscard]] Status MaterializeSwappedE(Database* db,
                                         const std::string& e_name,
                                         const std::string& swapped_name);

/// Resolve the query constant to a Value against `db`'s symbol table
/// (interning it if new).
Value ResolveSource(const CslQuery& q, Database* db);

}  // namespace mcm::rewrite
