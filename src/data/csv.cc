#include "data/csv.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/num_text.h"

namespace gbx {

namespace {

std::vector<std::string> SplitLine(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string field;
  std::stringstream ss(line);
  while (std::getline(ss, field, delim)) fields.push_back(field);
  // Trailing delimiter produces an implicit empty last field.
  if (!line.empty() && line.back() == delim) fields.emplace_back();
  return fields;
}

}  // namespace

StatusOr<Dataset> ParseCsv(const std::string& text,
                           const CsvOptions& options) {
  std::stringstream ss(text);
  std::string line;
  Matrix x;
  std::vector<int> y;
  int line_no = 0;
  bool skipped_header = !options.has_header;
  int expected_fields = -1;
  std::vector<double> features;
  while (std::getline(ss, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!skipped_header) {
      skipped_header = true;
      continue;
    }
    const std::vector<std::string> fields = SplitLine(line, options.delimiter);
    if (expected_fields < 0) {
      expected_fields = static_cast<int>(fields.size());
      if (expected_fields < 2) {
        return Status::InvalidArgument(
            "CSV needs at least one feature and one label column (line " +
            std::to_string(line_no) + ")");
      }
    }
    if (static_cast<int>(fields.size()) != expected_fields) {
      return Status::InvalidArgument("inconsistent field count at line " +
                                     std::to_string(line_no));
    }
    int label_col = options.label_column < 0 ? expected_fields - 1
                                             : options.label_column;
    if (label_col >= expected_fields) {
      return Status::InvalidArgument("label column out of range");
    }
    features.clear();
    int label = 0;
    for (int i = 0; i < expected_fields; ++i) {
      char* end = nullptr;
      const double v = std::strtod(fields[i].c_str(), &end);
      if (end == fields[i].c_str()) {
        return Status::InvalidArgument("non-numeric value '" + fields[i] +
                                       "' at line " + std::to_string(line_no));
      }
      if (i == label_col) {
        label = static_cast<int>(v);
        if (label < 0) {
          return Status::InvalidArgument("negative label at line " +
                                         std::to_string(line_no));
        }
      } else {
        features.push_back(v);
      }
    }
    x.AppendRow(features.data(), static_cast<int>(features.size()));
    y.push_back(label);
  }
  if (x.rows() == 0) return Status::InvalidArgument("CSV contains no rows");
  return Dataset(std::move(x), std::move(y));
}

StatusOr<Dataset> LoadCsv(const std::string& path, const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str(), options);
}

Status SaveCsv(const Dataset& dataset, const std::string& path,
               const CsvOptions& options) {
  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot write " + path);
  const int p = dataset.num_features();
  std::string text;
  if (options.has_header) {
    for (int j = 0; j < p; ++j) {
      text += 'f';
      AppendInt(j, &text);
      text += options.delimiter;
    }
    text += "label\n";
    out << text;
  }
  for (int i = 0; i < dataset.size(); ++i) {
    text.clear();
    const double* row = dataset.row(i);
    for (int j = 0; j < p; ++j) {
      AppendDouble(row[j], &text);
      text += options.delimiter;
    }
    AppendInt(dataset.label(i), &text);
    text += '\n';
    out << text;
  }
  if (!out) return Status::Internal("write failure on " + path);
  return Status::Ok();
}

}  // namespace gbx
