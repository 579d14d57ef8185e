#include "query/parser.h"

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "data/io.h"

namespace zeroone {

namespace {

enum class TokenKind {
  kIdentifier,
  kNumber,
  kString,   // single-quoted constant
  kLParen,
  kRParen,
  kComma,
  kDot,
  kAmp,
  kPipe,
  kBang,
  kArrow,    // ->
  kEquals,   // =
  kNotEquals,  // !=
  kAssign,   // :=
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
  std::size_t position;  // Byte offset, for error messages.
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    std::size_t i = 0;
    while (i < text_.size()) {
      char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = i;
        while (i < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[i])) ||
                text_[i] == '_')) {
          ++i;
        }
        tokens.push_back({TokenKind::kIdentifier,
                          std::string(text_.substr(start, i - start)), start});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[i + 1])))) {
        std::size_t start = i;
        if (c == '-') ++i;
        while (i < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[i]))) {
          ++i;
        }
        tokens.push_back({TokenKind::kNumber,
                          std::string(text_.substr(start, i - start)), start});
        continue;
      }
      if (c == '\'') {
        std::size_t start = ++i;
        while (i < text_.size() && text_[i] != '\'') ++i;
        if (i == text_.size()) {
          return Status::Error("parse error: unterminated string literal");
        }
        tokens.push_back({TokenKind::kString,
                          std::string(text_.substr(start, i - start)), start});
        ++i;  // Closing quote.
        continue;
      }
      switch (c) {
        case '(':
          tokens.push_back({TokenKind::kLParen, "(", i++});
          continue;
        case ')':
          tokens.push_back({TokenKind::kRParen, ")", i++});
          continue;
        case ',':
          tokens.push_back({TokenKind::kComma, ",", i++});
          continue;
        case '.':
          tokens.push_back({TokenKind::kDot, ".", i++});
          continue;
        case '&':
          tokens.push_back({TokenKind::kAmp, "&", i++});
          continue;
        case '|':
          tokens.push_back({TokenKind::kPipe, "|", i++});
          continue;
        case '!':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            tokens.push_back({TokenKind::kNotEquals, "!=", i});
            i += 2;
          } else {
            tokens.push_back({TokenKind::kBang, "!", i++});
          }
          continue;
        case '-':
          if (i + 1 < text_.size() && text_[i + 1] == '>') {
            tokens.push_back({TokenKind::kArrow, "->", i});
            i += 2;
            continue;
          }
          return Status::Error("parse error: stray '-' at offset ", i);
        case '=':
          tokens.push_back({TokenKind::kEquals, "=", i++});
          continue;
        case ':':
          if (i + 1 < text_.size() && text_[i + 1] == '=') {
            tokens.push_back({TokenKind::kAssign, ":=", i});
            i += 2;
            continue;
          }
          return Status::Error("parse error: stray ':' at offset ", i);
        default:
          return Status::Error("parse error: unexpected '", c, "' at offset ",
                               i);
      }
    }
    tokens.push_back({TokenKind::kEnd, "", text_.size()});
    return tokens;
  }

 private:
  std::string_view text_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<Query> ParseTopLevel() {
    std::string query_name = "Q";
    std::vector<std::size_t> free_variables;
    // Optional head: name '(' vars ')' ':='  — detect by scanning for ':='
    // before any formula content. A head is present iff the token stream
    // starts with identifier '(' identifiers ')' ':='.
    if (LooksLikeHead()) {
      query_name = Current().text;
      Advance();  // name
      Advance();  // '('
      if (Current().kind != TokenKind::kRParen) {
        while (true) {
          if (Current().kind != TokenKind::kIdentifier) {
            return Error("expected variable in query head");
          }
          free_variables.push_back(DeclareVariable(Current().text));
          Advance();
          if (Current().kind == TokenKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      if (Current().kind != TokenKind::kRParen) {
        return Error("expected ')' closing query head");
      }
      Advance();
      if (Current().kind != TokenKind::kAssign) {
        return Error("expected ':=' after query head");
      }
      Advance();
    } else if (Current().kind == TokenKind::kAssign) {
      Advance();  // Boolean query written ":= formula".
    }
    ZO_ASSIGN_OR_RETURN(FormulaPtr formula, ParseFormula());
    if (Current().kind != TokenKind::kEnd) {
      return Error("unexpected trailing input");
    }
    // Verify the head variables are exactly the free variables.
    std::vector<std::size_t> actual_free = formula->FreeVariables();
    for (std::size_t v : actual_free) {
      bool declared = false;
      for (std::size_t f : free_variables) declared = declared || f == v;
      if (!declared) {
        return Status::Error("parse error: variable '", variable_names_[v],
                             "' is free in the body but not in the head");
      }
    }
    return Query(std::move(query_name), std::move(free_variables),
                 std::move(formula), variable_names_);
  }

 private:
  const Token& Current() const { return tokens_[position_]; }
  const Token& Peek(std::size_t ahead = 1) const {
    std::size_t p = position_ + ahead;
    return p < tokens_.size() ? tokens_[p] : tokens_.back();
  }
  void Advance() {
    if (position_ + 1 < tokens_.size()) ++position_;
  }

  Status Error(const std::string& message) const {
    return Status::Error("parse error at offset ", Current().position, ": ",
                         message);
  }

  bool LooksLikeHead() const {
    if (Current().kind != TokenKind::kIdentifier) return false;
    if (Peek(1).kind != TokenKind::kLParen) return false;
    // Scan until the matching ')' (head variable lists have no nesting) and
    // check whether ':=' follows.
    std::size_t i = position_ + 2;
    while (i < tokens_.size() && tokens_[i].kind != TokenKind::kRParen) {
      if (tokens_[i].kind != TokenKind::kIdentifier &&
          tokens_[i].kind != TokenKind::kComma) {
        return false;
      }
      ++i;
    }
    return i + 1 < tokens_.size() &&
           tokens_[i + 1].kind == TokenKind::kAssign;
  }

  // Declares (or looks up) a variable name, returning its id.
  std::size_t DeclareVariable(const std::string& name) {
    auto it = variable_ids_.find(name);
    if (it != variable_ids_.end()) return it->second;
    std::size_t id = variable_names_.size();
    variable_names_.push_back(name);
    variable_ids_.emplace(name, id);
    return id;
  }

  bool IsDeclared(const std::string& name) const {
    return variable_ids_.count(name) != 0;
  }

  StatusOr<FormulaPtr> ParseFormula() {
    if (Current().kind == TokenKind::kIdentifier &&
        (Current().text == "exists" || Current().text == "forall")) {
      return ParseQuantified();
    }
    return ParseImplication();
  }

  StatusOr<FormulaPtr> ParseQuantified() {
    bool is_exists = Current().text == "exists";
    Advance();
    std::vector<std::size_t> vars;
    std::vector<std::string> names;
    while (true) {
      if (Current().kind != TokenKind::kIdentifier) {
        return Error("expected variable after quantifier");
      }
      names.push_back(Current().text);
      vars.push_back(DeclareVariable(Current().text));
      Advance();
      if (Current().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    if (Current().kind != TokenKind::kDot) {
      return Error("expected '.' after quantified variables");
    }
    Advance();
    ZO_ASSIGN_OR_RETURN(FormulaPtr body, ParseFormula());
    // Quantified variable names go out of scope after the body; they remain
    // in variable_names_ (ids are unique), but identifiers are re-usable
    // as constants afterwards only if never declared — we keep paper
    // semantics simple: a name, once a variable, stays a variable.
    return is_exists ? Formula::Exists(vars, std::move(body))
                     : Formula::Forall(vars, std::move(body));
  }

  StatusOr<FormulaPtr> ParseImplication() {
    ZO_ASSIGN_OR_RETURN(FormulaPtr left, ParseDisjunction());
    if (Current().kind == TokenKind::kArrow) {
      Advance();
      ZO_ASSIGN_OR_RETURN(FormulaPtr right, ParseFormula());
      return Formula::Implies(std::move(left), std::move(right));
    }
    return left;
  }

  StatusOr<FormulaPtr> ParseDisjunction() {
    ZO_ASSIGN_OR_RETURN(FormulaPtr first, ParseConjunction());
    std::vector<FormulaPtr> children;
    children.push_back(std::move(first));
    while (Current().kind == TokenKind::kPipe) {
      Advance();
      ZO_ASSIGN_OR_RETURN(FormulaPtr next, ParseConjunction());
      children.push_back(std::move(next));
    }
    return Formula::Or(std::move(children));
  }

  StatusOr<FormulaPtr> ParseConjunction() {
    ZO_ASSIGN_OR_RETURN(FormulaPtr first, ParseUnary());
    std::vector<FormulaPtr> children;
    children.push_back(std::move(first));
    while (Current().kind == TokenKind::kAmp) {
      Advance();
      ZO_ASSIGN_OR_RETURN(FormulaPtr next, ParseUnary());
      children.push_back(std::move(next));
    }
    return Formula::And(std::move(children));
  }

  StatusOr<FormulaPtr> ParseUnary() {
    if (Current().kind == TokenKind::kBang) {
      Advance();
      ZO_ASSIGN_OR_RETURN(FormulaPtr child, ParseUnary());
      return Formula::Not(std::move(child));
    }
    if (Current().kind == TokenKind::kIdentifier &&
        (Current().text == "exists" || Current().text == "forall")) {
      return ParseQuantified();
    }
    return ParsePrimary();
  }

  StatusOr<FormulaPtr> ParsePrimary() {
    if (Current().kind == TokenKind::kLParen) {
      Advance();
      ZO_ASSIGN_OR_RETURN(FormulaPtr inner, ParseFormula());
      if (Current().kind != TokenKind::kRParen) {
        return Error("expected ')'");
      }
      Advance();
      return inner;
    }
    if (Current().kind == TokenKind::kIdentifier && Current().text == "true") {
      Advance();
      return Formula::True();
    }
    if (Current().kind == TokenKind::kIdentifier &&
        Current().text == "false") {
      Advance();
      return Formula::False();
    }
    // Atom: identifier '('.
    if (Current().kind == TokenKind::kIdentifier &&
        Peek(1).kind == TokenKind::kLParen) {
      std::string relation = Current().text;
      Advance();
      Advance();  // '('
      std::vector<Term> terms;
      if (Current().kind != TokenKind::kRParen) {
        while (true) {
          ZO_ASSIGN_OR_RETURN(Term term, ParseTerm());
          terms.push_back(term);
          if (Current().kind == TokenKind::kComma) {
            Advance();
            continue;
          }
          break;
        }
      }
      if (Current().kind != TokenKind::kRParen) {
        return Error("expected ')' closing atom");
      }
      Advance();
      return Formula::Atom(std::move(relation), std::move(terms));
    }
    // (In)equality between two terms.
    ZO_ASSIGN_OR_RETURN(Term left, ParseTerm());
    if (Current().kind == TokenKind::kEquals) {
      Advance();
      ZO_ASSIGN_OR_RETURN(Term right, ParseTerm());
      return Formula::Equals(left, right);
    }
    if (Current().kind == TokenKind::kNotEquals) {
      Advance();
      ZO_ASSIGN_OR_RETURN(Term right, ParseTerm());
      return Formula::Not(Formula::Equals(left, right));
    }
    return Error("expected '=' or '!=' after term");
  }

  StatusOr<Term> ParseTerm() {
    if (Current().kind == TokenKind::kNumber) {
      Term t = Term::Val(Value::Constant(Current().text));
      Advance();
      return t;
    }
    if (Current().kind == TokenKind::kString) {
      Term t = Term::Val(Value::Constant(Current().text));
      Advance();
      return t;
    }
    if (Current().kind == TokenKind::kIdentifier) {
      std::string name = Current().text;
      Advance();
      if (IsDeclared(name)) {
        return Term::Variable(variable_ids_.at(name));
      }
      // Undeclared identifiers denote named constants (paper style: R(c, y)
      // mentions the constant c).
      return Term::Val(Value::Constant(name));
    }
    return Error("expected term");
  }

  std::vector<Token> tokens_;
  std::size_t position_ = 0;
  std::vector<std::string> variable_names_;
  std::map<std::string, std::size_t> variable_ids_;
};

}  // namespace

StatusOr<Query> ParseQuery(std::string_view text) {
  Lexer lexer(text);
  ZO_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseTopLevel();
}

StatusOr<Tuple> ParseAnswerTuple(const Query& query, std::string_view text) {
  ZO_ASSIGN_OR_RETURN(Tuple tuple, ParseTuple(text));
  if (tuple.arity() != query.arity()) {
    return Status::Error("tuple arity " + std::to_string(tuple.arity()) +
                         " does not match query arity " +
                         std::to_string(query.arity()));
  }
  return tuple;
}

}  // namespace zeroone
