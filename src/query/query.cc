#include "query/query.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace csod::query {

namespace {

// --- Tokenizer ---------------------------------------------------------

struct Token {
  enum class Kind { kWord, kString, kPunct, kEnd };
  Kind kind = Kind::kEnd;
  std::string text;
};

class Tokenizer {
 public:
  explicit Tokenizer(const std::string& text) : text_(text) {}

  Result<std::vector<Token>> Run() {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < text_.size()) {
      const char c = text_[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '\'') {
        const size_t close = text_.find('\'', i + 1);
        if (close == std::string::npos) {
          return Status::InvalidArgument("unterminated string literal");
        }
        tokens.push_back(
            {Token::Kind::kString, text_.substr(i + 1, close - i - 1)});
        i = close + 1;
        continue;
      }
      if (c == '!' || c == '<') {
        // != or <>.
        if (i + 1 < text_.size() &&
            ((c == '!' && text_[i + 1] == '=') ||
             (c == '<' && text_[i + 1] == '>'))) {
          tokens.push_back({Token::Kind::kPunct, "!="});
          i += 2;
          continue;
        }
        return Status::InvalidArgument(std::string("unexpected character '") +
                                       c + "'");
      }
      if (c == '(' || c == ')' || c == ',' || c == ';' || c == '=') {
        tokens.push_back({Token::Kind::kPunct, std::string(1, c)});
        ++i;
        continue;
      }
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.' || c == '-' || c == '|') {
        size_t j = i;
        while (j < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[j])) ||
                text_[j] == '_' || text_[j] == '.' || text_[j] == '-' ||
                text_[j] == '|')) {
          ++j;
        }
        tokens.push_back({Token::Kind::kWord, text_.substr(i, j - i)});
        i = j;
        continue;
      }
      return Status::InvalidArgument(std::string("unexpected character '") +
                                     c + "'");
    }
    tokens.push_back({Token::Kind::kEnd, ""});
    return tokens;
  }

 private:
  const std::string& text_;
};

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// --- Parser ------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Query> Run() {
    Query query;
    CSOD_RETURN_NOT_OK(ExpectKeyword("select"));

    // Outlier K | Top K.
    const Token& kind = Peek();
    const std::string kind_word = Lower(kind.text);
    if (kind.kind != Token::Kind::kWord ||
        (kind_word != "outlier" && kind_word != "top")) {
      return Status::InvalidArgument(
          "expected 'Outlier K' or 'Top K' after SELECT");
    }
    query.kind =
        kind_word == "outlier" ? QueryKind::kOutlier : QueryKind::kTop;
    Advance();
    CSOD_ASSIGN_OR_RETURN(query.k, ParseCount());

    // SUM ( col ).
    CSOD_RETURN_NOT_OK(ExpectKeyword("sum"));
    CSOD_RETURN_NOT_OK(ExpectPunct("("));
    CSOD_ASSIGN_OR_RETURN(query.score_column, ParseIdentifier());
    CSOD_RETURN_NOT_OK(ExpectPunct(")"));

    // , G1, ..., Gm (the select-list attributes).
    std::vector<std::string> select_attrs;
    while (PeekPunct(",")) {
      Advance();
      CSOD_ASSIGN_OR_RETURN(std::string attr, ParseIdentifier());
      select_attrs.push_back(std::move(attr));
    }

    // FROM source [PARAMS(...)].
    CSOD_RETURN_NOT_OK(ExpectKeyword("from"));
    CSOD_ASSIGN_OR_RETURN(query.source, ParseIdentifier());
    if (PeekKeyword("params")) {
      Advance();
      CSOD_RETURN_NOT_OK(ExpectPunct("("));
      int depth = 1;
      while (depth > 0) {
        const Token& t = Peek();
        if (t.kind == Token::Kind::kEnd) {
          return Status::InvalidArgument("unterminated PARAMS(...)");
        }
        if (t.kind == Token::Kind::kPunct && t.text == "(") ++depth;
        if (t.kind == Token::Kind::kPunct && t.text == ")") --depth;
        Advance();
      }
    }

    // WHERE conjunction.
    if (PeekKeyword("where")) {
      Advance();
      while (true) {
        Predicate predicate;
        CSOD_ASSIGN_OR_RETURN(predicate.column, ParseIdentifier());
        if (PeekPunct("=")) {
          predicate.op = Predicate::Op::kEquals;
        } else if (PeekPunct("!=")) {
          predicate.op = Predicate::Op::kNotEquals;
        } else {
          return Status::InvalidArgument("expected '=' or '!=' in WHERE");
        }
        Advance();
        const Token& value = Peek();
        if (value.kind != Token::Kind::kString &&
            value.kind != Token::Kind::kWord) {
          return Status::InvalidArgument("expected value in WHERE predicate");
        }
        predicate.value = value.text;
        Advance();
        query.predicates.push_back(std::move(predicate));
        if (PeekKeyword("and")) {
          Advance();
          continue;
        }
        break;
      }
    }

    // GROUP BY G1, ..., Gm.
    CSOD_RETURN_NOT_OK(ExpectKeyword("group"));
    CSOD_RETURN_NOT_OK(ExpectKeyword("by"));
    while (true) {
      CSOD_ASSIGN_OR_RETURN(std::string attr, ParseIdentifier());
      query.group_by.push_back(std::move(attr));
      if (PeekPunct(",")) {
        Advance();
        continue;
      }
      break;
    }
    if (PeekPunct(";")) Advance();
    if (Peek().kind != Token::Kind::kEnd) {
      return Status::InvalidArgument("trailing input after GROUP BY: '" +
                                     Peek().text + "'");
    }

    // The select-list attributes must match GROUP BY (the template's
    // G1...Gm appear in both positions).
    if (!select_attrs.empty() && select_attrs != query.group_by) {
      return Status::InvalidArgument(
          "SELECT attributes must match GROUP BY attributes");
    }
    if (query.group_by.empty()) {
      return Status::InvalidArgument("GROUP BY must list attributes");
    }
    if (query.k == 0) {
      return Status::InvalidArgument("K must be a positive integer");
    }
    return query;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }

  bool PeekKeyword(const std::string& word) const {
    return Peek().kind == Token::Kind::kWord && Lower(Peek().text) == word;
  }
  bool PeekPunct(const std::string& punct) const {
    return Peek().kind == Token::Kind::kPunct && Peek().text == punct;
  }

  Status ExpectKeyword(const std::string& word) {
    if (!PeekKeyword(word)) {
      return Status::InvalidArgument("expected keyword '" + word +
                                     "', found '" + Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }

  Status ExpectPunct(const std::string& punct) {
    if (!PeekPunct(punct)) {
      return Status::InvalidArgument("expected '" + punct + "', found '" +
                                     Peek().text + "'");
    }
    Advance();
    return Status::OK();
  }

  Result<std::string> ParseIdentifier() {
    if (Peek().kind != Token::Kind::kWord) {
      return Status::InvalidArgument("expected identifier, found '" +
                                     Peek().text + "'");
    }
    std::string text = Peek().text;
    Advance();
    return text;
  }

  Result<size_t> ParseCount() {
    if (Peek().kind != Token::Kind::kWord) {
      return Status::InvalidArgument("expected K after Outlier/Top");
    }
    char* end = nullptr;
    errno = 0;
    const long long value = std::strtoll(Peek().text.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || value <= 0) {
      return Status::InvalidArgument("K must be a positive integer, found '" +
                                     Peek().text + "'");
    }
    // strtoll clamps an out-of-range number to LLONG_MAX.
    if (errno == ERANGE) {
      return Status::InvalidArgument("K is out of range, found '" +
                                     Peek().text + "'");
    }
    Advance();
    return static_cast<size_t>(value);
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Query> ParseQuery(const std::string& text) {
  Tokenizer tokenizer(text);
  CSOD_ASSIGN_OR_RETURN(std::vector<Token> tokens, tokenizer.Run());
  Parser parser(std::move(tokens));
  return parser.Run();
}

}  // namespace csod::query
