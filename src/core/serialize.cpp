#include "core/serialize.h"

#include <cctype>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "accel/config.h"
#include "arch/genotype.h"
#include "arch/network.h"
#include "base/contract.h"
#include "core/design_space.h"

namespace yoso {

namespace {

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : text) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  return parts;
}

int parse_int(const std::string& text, const std::string& what) {
  try {
    std::size_t pos = 0;
    const int v = std::stoi(text, &pos);
    if (pos != text.size())
      throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("parse error: bad integer '" + text +
                                "' in " + what);
  }
}

std::string expect_prefix(const std::string& text, const std::string& prefix,
                          const std::string& what) {
  if (text.rfind(prefix, 0) != 0)
    throw std::invalid_argument("parse error: expected '" + prefix +
                                "' in " + what + ", got '" + text + "'");
  return text.substr(prefix.size());
}

/// "<normals>x<stem>" in cell and channel counts; each must be a value of
/// the searched skeleton axis.
SkeletonChoice parse_skeleton_choice(const std::string& text) {
  const auto parts = split(text, 'x');
  if (parts.size() != 2)
    throw std::invalid_argument(
        "parse error: skeleton needs '<normals>x<stem>', got '" + text + "'");
  auto index_of = [&](const auto& values, const std::string& field,
                      const char* what) {
    const int v = parse_int(field, what);
    for (std::size_t i = 0; i < values.size(); ++i)
      if (values[i] == v) return static_cast<std::int8_t>(i);
    throw std::invalid_argument("parse error: " + std::string(what) + " " +
                                field + " is not on the searched skeleton "
                                "axis in '" + text + "'");
  };
  SkeletonChoice k;
  k.normals = index_of(kSearchedNormalsPerStage, parts[0],
                       "normal cells per stage");
  k.stem = index_of(kSearchedStemChannels, parts[1], "stem channels");
  return k;
}

}  // namespace

std::string serialize_cell(const CellGenotype& cell) {
  std::ostringstream ss;
  for (std::size_t n = 0; n < cell.nodes.size(); ++n) {
    const NodeSpec& s = cell.nodes[n];
    if (n > 0) ss << ";";
    ss << s.input_a << "," << s.input_b << "," << op_name(s.op_a) << ","
       << op_name(s.op_b);
  }
  return ss.str();
}

CellGenotype parse_cell(const std::string& text) {
  CellGenotype cell;
  const auto nodes = split(text, ';');
  for (const std::string& node_text : nodes) {
    const auto fields = split(node_text, ',');
    if (fields.size() != 4)
      throw std::invalid_argument(
          "parse error: cell node needs 4 comma-separated fields, got '" +
          node_text + "'");
    NodeSpec spec;
    spec.input_a = parse_int(fields[0], "cell node input_a");
    spec.input_b = parse_int(fields[1], "cell node input_b");
    spec.op_a = op_from_name(fields[2]);
    spec.op_b = op_from_name(fields[3]);
    cell.nodes.push_back(spec);
  }
  std::string error;
  if (!validate_cell(cell, &error))
    throw std::invalid_argument("parse error: invalid cell: " + error);
  return cell;
}

std::string serialize_genotype(const Genotype& g) {
  return "normal=" + serialize_cell(g.normal) +
         "|reduction=" + serialize_cell(g.reduction);
}

Genotype parse_genotype(const std::string& text) {
  const auto parts = split(text, '|');
  if (parts.size() != 2)
    throw std::invalid_argument(
        "parse error: genotype needs 'normal=...|reduction=...'");
  Genotype g;
  g.normal = parse_cell(expect_prefix(parts[0], "normal=", "genotype"));
  g.reduction =
      parse_cell(expect_prefix(parts[1], "reduction=", "genotype"));
  std::string error;
  if (!validate_genotype(g, &error))
    throw std::invalid_argument("parse error: invalid genotype: " + error);
  return g;
}

AcceleratorConfig parse_accelerator_config(const std::string& text) {
  // rows*cols/gbufKB/rbufB/dataflow
  const auto parts = split(text, '/');
  if (parts.size() != 4)
    throw std::invalid_argument(
        "parse error: config needs 'R*C/<g>KB/<r>B/<dataflow>', got '" +
        text + "'");
  const auto pe = split(parts[0], '*');
  if (pe.size() != 2)
    throw std::invalid_argument("parse error: PE shape needs 'R*C', got '" +
                                parts[0] + "'");
  AcceleratorConfig c;
  c.pe_rows = parse_int(pe[0], "PE rows");
  c.pe_cols = parse_int(pe[1], "PE cols");

  auto strip_suffix = [](const std::string& s, const std::string& suffix,
                         const std::string& what) {
    if (s.size() <= suffix.size() ||
        s.compare(s.size() - suffix.size(), suffix.size(), suffix) != 0) {
      // Accept case-insensitive kb/b written by hand.
      std::string lower = s, lsuf = suffix;
      for (char& ch : lower) ch = static_cast<char>(std::tolower(ch));
      for (char& ch : lsuf) ch = static_cast<char>(std::tolower(ch));
      if (lower.size() > lsuf.size() &&
          lower.compare(lower.size() - lsuf.size(), lsuf.size(), lsuf) == 0)
        return s.substr(0, s.size() - suffix.size());
      throw std::invalid_argument("parse error: expected '" + suffix +
                                  "' suffix in " + what + ", got '" + s +
                                  "'");
    }
    return s.substr(0, s.size() - suffix.size());
  };
  c.g_buf_kb = parse_int(strip_suffix(parts[1], "KB", "global buffer"),
                         "global buffer size");
  c.r_buf_bytes = parse_int(strip_suffix(parts[2], "B", "register buffer"),
                            "register buffer size");
  c.dataflow = dataflow_from_name(parts[3]);
  if (c.pe_rows <= 0 || c.pe_cols <= 0 || c.g_buf_kb <= 0 ||
      c.r_buf_bytes <= 0)
    throw std::invalid_argument("parse error: non-positive dimension in '" +
                                text + "'");
  return c;
}


std::string serialize_candidate(const CandidateDesign& candidate) {
  std::string text = serialize_genotype(candidate.genotype) + "@" +
                     candidate.config.to_string();
  const SkeletonChoice k = candidate.skeleton;
  if (k.is_set()) {
    YOSO_REQUIRE(k.normals >= 0 &&
                     static_cast<std::size_t>(k.normals) <
                         kSearchedNormalsPerStage.size() &&
                     k.stem >= 0 &&
                     static_cast<std::size_t>(k.stem) <
                         kSearchedStemChannels.size(),
                 "serialize_candidate: skeleton choice (", int{k.normals},
                 ", ", int{k.stem}, ") out of range");
    text += '#';
    text += std::to_string(
        kSearchedNormalsPerStage[static_cast<std::size_t>(k.normals)]);
    text += 'x';
    text += std::to_string(
        kSearchedStemChannels[static_cast<std::size_t>(k.stem)]);
  }
  return text;
}

CandidateDesign parse_candidate(const std::string& text) {
  const auto at = text.find('@');
  if (at == std::string::npos)
    throw std::invalid_argument(
        "parse error: candidate needs '<genotype>@<config>'");
  CandidateDesign c;
  c.genotype = parse_genotype(text.substr(0, at));
  const auto hash = text.find('#', at + 1);
  c.config = parse_accelerator_config(
      text.substr(at + 1, hash == std::string::npos ? std::string::npos
                                                    : hash - at - 1));
  if (hash != std::string::npos)
    c.skeleton = parse_skeleton_choice(text.substr(hash + 1));
  return c;
}

}  // namespace yoso
