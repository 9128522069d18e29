#include "rewrite/csl.h"

namespace mcm::rewrite {

std::string CslQuery::ToString() const {
  return "CSL{P=" + p + " E=" + e + " L=" + l + " R=" + r +
         " a=" + source.ToString() + "}";
}

Value ResolveSource(const CslQuery& q, Database* db) {
  if (q.source.kind == dl::Term::Kind::kInt) return q.source.value;
  return db->symbols().Intern(q.source.name);
}

Status MaterializeSwappedE(Database* db, const std::string& e_name,
                           const std::string& swapped_name) {
  Relation* e = db->Find(e_name);
  if (e == nullptr) {
    return Status::NotFound("relation '" + e_name + "' not found");
  }
  if (e->arity() != 2) {
    return Status::InvalidArgument("E must be binary to swap");
  }
  Relation* swapped = db->GetOrCreateRelation(swapped_name, 2);
  swapped->Clear();
  for (const Tuple& t : e->TuplesUnchecked()) {
    swapped->Insert2(t[1], t[0]);
  }
  return Status::OK();
}

}  // namespace mcm::rewrite
