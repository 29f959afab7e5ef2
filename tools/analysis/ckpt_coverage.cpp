// Pass 2 — checkpoint-coverage audit.
//
// Convention (DESIGN.md §14): a struct/class whose state must survive
// checkpoint/resume carries a `// ckpt-struct: <prefix>` comment above its
// definition; every data member then needs either
//
//   // ckpt: <key>[, <key>...]   the checkpoint entry key(s) persisting it
//   // ckpt: none(<reason>)      an explicit opt-out, reason required
//
// on its own line or the line above. The pass cross-checks annotation keys
// against the literal keys actually packed in src/fl and src/core (first
// argument of the pack_floats/pack_u64s/pack_doubles/pack_rng helpers) and
// unpacked again (at/find call arguments). A StateArchive walk (DESIGN.md
// §8.4) writes and reads through the same call, so every literal in an
// archive call — a primitive, a model-state helper, or a nested
// state(ar, "<prefix>") walk — counts as both a pack and an unpack site.
// Keys match when equal, or when one is a '/'-terminated prefix of the
// other, so an annotation may name either the full key or the prefix used
// at the pack site.
//
// Rules:
//   ckpt-unannotated-field  member of an audited struct with no annotation —
//                           the exact drift that silently breaks
//                           bit-identical resume
//   ckpt-missing-pack       annotated key with no pack site
//   ckpt-missing-unpack     packed key never read back on the restore path
#include <cctype>

#include "analysis/analysis.hpp"

namespace spatl::analysis {
namespace {

struct Site {
  const SourceFile* file = nullptr;
  std::size_t pos = 0;
  std::string text;
};

bool key_char(char c) {
  return ident_char(c) || c == '/';
}

/// Byte range of the balanced parens opening at `open` (code channel);
/// returns the position one past the matching ')'.
std::size_t paren_end(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    if (code[i] == ')' && --depth == 0) return i + 1;
  }
  return code.size();
}

/// End of the first argument: the first depth-1 comma, else the close paren.
std::size_t first_arg_end(const std::string& code, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < code.size(); ++i) {
    if (code[i] == '(') ++depth;
    if (code[i] == ')' && --depth == 0) return i;
    if (code[i] == ',' && depth == 1) return i;
  }
  return code.size();
}

void literals_in(const SourceFile& f, std::size_t begin, std::size_t end,
                 std::vector<Site>* out) {
  for (const auto& lit : f.text.strings) {
    if (lit.pos >= begin && lit.pos < end && !lit.text.empty()) {
      out->push_back({&f, lit.pos, lit.text});
    }
  }
}

void collect_sites(const SourceFile& f, std::vector<Site>* packs,
                   std::vector<Site>* unpacks) {
  const std::string& code = f.text.code;
  for (const char* token :
       {"pack_floats(", "pack_u64s(", "pack_doubles(", "pack_rng("}) {
    for (std::size_t p : find_token(code, token)) {
      const std::size_t open = p + std::string(token).size() - 1;
      literals_in(f, open, first_arg_end(code, open), packs);
    }
  }
  for (const char* token :
       {"floats(", "doubles(", "u64s(", "u64(", "f64(", "rng(",
        "walk_params(", "walk_bn(", "state("}) {
    for (std::size_t p : find_token(code, token)) {
      const std::size_t open = p + std::string(token).size() - 1;
      literals_in(f, open, paren_end(code, open), packs);
      literals_in(f, open, paren_end(code, open), unpacks);
    }
  }
  for (const char* token : {"at(", "find("}) {
    for (std::size_t p : find_token(code, token)) {
      const std::size_t open = p + std::string(token).size() - 1;
      literals_in(f, open, paren_end(code, open), unpacks);
    }
  }
}

/// `prefix` ends in '/' and starts `key` ("run/series/" of
/// "run/series/prev_loss").
bool key_prefix(const std::string& prefix, const std::string& key) {
  return !prefix.empty() && prefix.back() == '/' &&
         key.compare(0, prefix.size(), prefix) == 0;
}

bool covered(const std::string& key, const std::vector<Site>& sites) {
  for (const auto& s : sites) {
    if (key == s.text || key_prefix(key, s.text) || key_prefix(s.text, key)) {
      return true;
    }
  }
  return false;
}

struct Annotation {
  bool present = false;
  bool opt_out = false;  // ckpt: none(...)
  std::size_t pos = 0;
  std::vector<std::string> keys;
};

/// Find a `// ckpt:` annotation within [begin, end) of the comments channel.
Annotation find_annotation(const std::string& comments, std::size_t begin,
                           std::size_t end) {
  Annotation a;
  const std::string marker = "ckpt:";
  for (std::size_t p = comments.find(marker, begin);
       p != std::string::npos && p < end; p = comments.find(marker, p + 1)) {
    if (p > 0 && (ident_char(comments[p - 1]) || comments[p - 1] == '-')) {
      continue;  // ckpt-struct: markers and prose like "xckpt:"
    }
    a.present = true;
    a.pos = p;
    std::size_t q = p + marker.size();
    while (q < comments.size() && comments[q] == ' ') ++q;
    while (q < comments.size() && key_char(comments[q])) {
      std::string key;
      while (q < comments.size() && key_char(comments[q])) key += comments[q++];
      if (key == "none") {
        a.opt_out = true;
        break;
      }
      a.keys.push_back(key);
      while (q < comments.size() && comments[q] == ' ') ++q;
      if (q >= comments.size() || comments[q] != ',') break;
      ++q;
      while (q < comments.size() && comments[q] == ' ') ++q;
    }
    break;
  }
  return a;
}

struct Member {
  std::string name;
  std::size_t pos = 0;  // position of the name
  std::size_t end = 0;  // one past the statement's last byte
};

/// Data members declared at depth 1 of the class body [open, close].
/// Function declarations/definitions, nested types, using/typedef/friend,
/// static constants, and operator members are not state and are skipped.
std::vector<Member> members_of(const std::string& code, std::size_t open,
                               std::size_t close) {
  std::vector<Member> members;
  std::vector<std::pair<std::size_t, std::size_t>> statements;
  int depth = 1;
  std::size_t start = open + 1;
  for (std::size_t i = open + 1; i <= close && i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{') {
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 1) {
        statements.push_back({start, i + 1});
        start = i + 1;
      } else if (depth == 0) {
        statements.push_back({start, i});
        break;
      }
    } else if (c == ';' && depth == 1) {
      statements.push_back({start, i});
      start = i + 1;
    }
  }

  for (const auto& [s_begin, s_end] : statements) {
    std::string stmt = code.substr(s_begin, s_end - s_begin);
    // Drop leading access labels so "private: int x_" reads as a member.
    std::size_t at = 0;
    for (;;) {
      while (at < stmt.size() &&
             std::isspace(static_cast<unsigned char>(stmt[at]))) {
        ++at;
      }
      bool stripped = false;
      for (const char* label : {"public", "protected", "private"}) {
        const std::string l(label);
        if (stmt.compare(at, l.size(), l) == 0 &&
            token_at(stmt, at, l)) {
          std::size_t colon = at + l.size();
          while (colon < stmt.size() &&
                 std::isspace(static_cast<unsigned char>(stmt[colon]))) {
            ++colon;
          }
          if (colon < stmt.size() && stmt[colon] == ':') {
            at = colon + 1;
            stripped = true;
          }
        }
      }
      if (!stripped) break;
    }
    stmt = stmt.substr(at);
    if (stmt.find_first_not_of(" \t\n\r") == std::string::npos) continue;

    bool skip = false;
    for (const char* kw : {"using", "typedef", "friend", "static_assert",
                           "template", "struct", "class", "enum", "static"}) {
      if (stmt.compare(0, std::string(kw).size(), kw) == 0 &&
          token_at(stmt, 0, kw)) {
        skip = true;
      }
    }
    if (!find_token(stmt, "operator").empty()) skip = true;
    if (skip) continue;

    // Classify by the first structural character: '(' means a function
    // (declaration, definition, or '= default/delete' special member);
    // '=' or '{' mean an initialized data member; none means a plain one.
    const std::size_t first = stmt.find_first_of("=({[");
    if (first != std::string::npos && stmt[first] == '(') continue;
    const std::size_t name_end =
        first == std::string::npos ? stmt.size() : first;
    std::size_t e = name_end;
    while (e > 0 && std::isspace(static_cast<unsigned char>(stmt[e - 1]))) {
      --e;
    }
    std::size_t b = e;
    while (b > 0 && ident_char(stmt[b - 1])) --b;
    if (b == e) continue;  // no identifier (e.g. stray tokens)
    members.push_back({stmt.substr(b, e - b), s_begin + at + b, s_end});
  }
  return members;
}

struct AuditedStruct {
  const SourceFile* file = nullptr;
  std::string name;
  std::vector<Member> fields;
};

void collect_structs(const SourceFile& f, std::vector<AuditedStruct>* out) {
  const std::string& code = f.text.code;
  const std::string marker = "ckpt-struct:";
  for (std::size_t p = f.text.comments.find(marker); p != std::string::npos;
       p = f.text.comments.find(marker, p + 1)) {
    std::size_t kw = std::string::npos;
    for (const char* k : {"struct", "class"}) {
      for (std::size_t q : find_token(code, k)) {
        if (q > p) {
          kw = std::min(kw, q);
          break;
        }
      }
    }
    if (kw == std::string::npos) continue;
    std::size_t name_begin =
        kw + (code.compare(kw, 6, "struct") == 0 ? 6 : 5);
    while (name_begin < code.size() && !ident_char(code[name_begin])) {
      ++name_begin;
    }
    std::size_t name_end = name_begin;
    while (name_end < code.size() && ident_char(code[name_end])) ++name_end;

    const std::size_t open = code.find('{', kw);
    if (open == std::string::npos) continue;
    int depth = 0;
    std::size_t close = code.size() - 1;
    for (std::size_t i = open; i < code.size(); ++i) {
      if (code[i] == '{') ++depth;
      if (code[i] == '}' && --depth == 0) {
        close = i;
        break;
      }
    }
    out->push_back({&f, code.substr(name_begin, name_end - name_begin),
                    members_of(code, open, close)});
  }
}

}  // namespace

void run_ckpt_coverage(const Project& project, std::vector<Finding>* out) {
  std::vector<Site> packs;  // keys written — must be read back somewhere
  std::vector<Site> unpacks;
  std::vector<AuditedStruct> structs;
  for (const auto& f : project.files) {
    if (f.rel.rfind("src/fl", 0) == 0 || f.rel.rfind("src/core", 0) == 0) {
      collect_sites(f, &packs, &unpacks);
    }
    if (f.rel.rfind("src/", 0) == 0) collect_structs(f, &structs);
  }

  for (const auto& s : structs) {
    for (const auto& m : s.fields) {
      // The annotation lives on the member's own statement line(s), or on
      // the line directly above when that line is comment-only — the two
      // windows never overlap a neighbouring member, so one field's keys
      // cannot satisfy another's audit.
      const auto& raw = s.file->text.raw;
      std::size_t line_begin = raw.rfind('\n', m.pos);
      line_begin = line_begin == std::string::npos ? 0 : line_begin;
      std::size_t stmt_line_end = raw.find('\n', m.end);
      if (stmt_line_end == std::string::npos) stmt_line_end = raw.size();

      Annotation a =
          find_annotation(s.file->text.comments, line_begin, stmt_line_end);
      if (!a.present && line_begin > 0) {
        std::size_t prev_begin = raw.rfind('\n', line_begin - 1);
        prev_begin = prev_begin == std::string::npos ? 0 : prev_begin;
        bool comment_only = true;
        for (std::size_t i = prev_begin; i < line_begin; ++i) {
          if (!std::isspace(
                  static_cast<unsigned char>(s.file->text.code[i]))) {
            comment_only = false;
            break;
          }
        }
        if (comment_only) {
          a = find_annotation(s.file->text.comments, prev_begin, line_begin);
        }
      }
      if (!a.present) {
        emit(*s.file, out, "ckpt-unannotated-field", m.pos,
             "field '" + m.name + "' of checkpoint-audited struct '" +
                 s.name +
                 "' has no // ckpt: annotation — name the checkpoint "
                 "key(s) persisting it or mark it // ckpt: none(<reason>); "
                 "unpersisted state breaks bit-identical resume");
        continue;
      }
      if (a.opt_out) continue;
      if (a.keys.empty()) {
        emit(*s.file, out, "ckpt-unannotated-field", a.pos,
             "empty // ckpt: annotation on '" + m.name + "' of '" + s.name +
                 "' — name the key(s) or use none(<reason>)");
        continue;
      }
      for (const auto& key : a.keys) {
        if (!covered(key, packs)) {
          emit(*s.file, out, "ckpt-missing-pack", a.pos,
               "annotation key '" + key + "' on '" + s.name + "::" + m.name +
                   "' matches no pack site in src/fl or src/core — the "
                   "field is declared persisted but nothing writes it");
        }
      }
    }
  }

  for (const auto& p : packs) {
    if (!covered(p.text, unpacks)) {
      emit(*p.file, out, "ckpt-missing-unpack", p.pos,
           "checkpoint key '" + p.text +
               "' is packed but never unpacked (no at/find or archive site "
               "reads it back) — resume silently drops this state");
    }
  }
}

}  // namespace spatl::analysis
