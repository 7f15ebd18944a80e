#include "core/table.hpp"

#include <cstdio>
#include <sstream>

#include "core/json_value.hpp"

namespace nodebench {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  NB_EXPECTS(!headers_.empty());
  aligns_.assign(headers_.size(), Align::Right);
  aligns_[0] = Align::Left;
}

void Table::setAlign(std::size_t column, Align align) {
  NB_EXPECTS(column < headers_.size());
  aligns_[column] = align;
}

void Table::addRow(std::vector<std::string> cells) {
  NB_EXPECTS_MSG(cells.size() == headers_.size(),
                 "row width must match header width");
  rows_.push_back(std::move(cells));
}

void Table::addSeparator() { rows_.emplace_back(); }

const std::string& Table::cell(std::size_t row, std::size_t col) const {
  NB_EXPECTS(row < rows_.size());
  NB_EXPECTS(col < headers_.size());
  NB_EXPECTS_MSG(!rows_[row].empty(), "cannot index a separator row");
  return rows_[row][col];
}

std::vector<std::size_t> Table::columnWidths() const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    if (row.empty()) {
      continue;
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  return widths;
}

namespace {

void appendPadded(std::string& out, const std::string& text,
                  std::size_t width, Align align) {
  const std::size_t pad = width - std::min(width, text.size());
  if (align == Align::Right) {
    out.append(pad, ' ');
    out += text;
  } else {
    out += text;
    out.append(pad, ' ');
  }
}

}  // namespace

std::string Table::renderAscii() const {
  const auto widths = columnWidths();
  std::string rule = "+";
  for (std::size_t w : widths) {
    rule.append(w + 2, '-');
    rule += '+';
  }
  rule += '\n';

  std::string out;
  if (!title_.empty()) {
    out += title_;
    out += '\n';
  }
  out += rule;
  out += "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += ' ';
    appendPadded(out, headers_[c], widths[c], Align::Left);
    out += " |";
  }
  out += '\n';
  out += rule;
  for (const auto& row : rows_) {
    if (row.empty()) {
      out += rule;
      continue;
    }
    out += "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += ' ';
      appendPadded(out, row[c], widths[c], aligns_[c]);
      out += " |";
    }
    out += '\n';
  }
  out += rule;
  if (!caption_.empty()) {
    out += caption_;
    out += '\n';
  }
  return out;
}

std::string Table::renderMarkdown() const {
  std::string out;
  if (!title_.empty()) {
    out += "### " + title_ + "\n\n";
  }
  out += "|";
  for (const auto& h : headers_) {
    out += " " + h + " |";
  }
  out += "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += aligns_[c] == Align::Right ? " ---: |" : " --- |";
  }
  out += '\n';
  for (const auto& row : rows_) {
    if (row.empty()) {
      continue;  // Markdown has no mid-table separators.
    }
    out += "|";
    for (const auto& cellText : row) {
      out += " " + cellText + " |";
    }
    out += '\n';
  }
  if (!caption_.empty()) {
    out += "\n*" + caption_ + "*\n";
  }
  return out;
}

namespace {

std::string csvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    return s;
  }
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') {
      out += "\"\"";
    } else {
      out += ch;
    }
  }
  out += '"';
  return out;
}

}  // namespace

std::string Table::renderCsv() const {
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) {
      out += ',';
    }
    out += csvEscape(headers_[c]);
  }
  out += '\n';
  for (const auto& row : rows_) {
    if (row.empty()) {
      continue;
    }
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) {
        out += ',';
      }
      out += csvEscape(row[c]);
    }
    out += '\n';
  }
  return out;
}

std::string Table::renderJson() const {
  std::string out = "{\n  \"title\": ";
  appendJsonString(out, title_);
  out += ",\n  \"caption\": ";
  appendJsonString(out, caption_);
  out += ",\n  \"headers\": [";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c != 0) {
      out += ", ";
    }
    appendJsonString(out, headers_[c]);
  }
  out += "],\n  \"rows\": [\n";
  bool firstRow = true;
  for (const auto& row : rows_) {
    if (row.empty()) {
      continue;  // separators have no JSON representation
    }
    if (!firstRow) {
      out += ",\n";
    }
    firstRow = false;
    out += "    [";
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) {
        out += ", ";
      }
      appendJsonString(out, row[c]);
    }
    out += "]";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string formatFixed(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace nodebench
