// Load/save PointDataset as CSV with columns x,y,time,category. Lets users
// run the library on the real municipal exports the paper used (after
// projecting lon/lat to meters; see geom/projection.h).
//
// The load path treats the file as untrusted input: coordinates go through
// the shared validation layer (util/validate.h — NaN/Inf rejected, the
// magnitude cap enforced, -0.0/subnormals canonicalized) and the CSV
// parser enforces the byte/field caps and rejects BOM tricks, embedded
// NULs, and truncated quoted fields with line-numbered errors.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "data/dataset.h"
#include "util/csv.h"
#include "util/result.h"

namespace slam {

struct CsvLoadOptions {
  /// When true, rows whose coordinates fail validation (NaN/Inf or beyond
  /// the magnitude cap) are dropped (with a logged warning and a count in
  /// *dropped_rows) instead of failing the load.
  bool sanitize = false;
  /// Parser hardening caps (delimiter, max field/record bytes, max
  /// fields); see util/csv.h.
  CsvOptions csv;
  /// Upper bound on accepted data rows; rows beyond it fail the load
  /// (0 = unlimited). A caller loading untrusted files passes a bound so
  /// one upload cannot exhaust memory.
  size_t max_rows = 0;
};

/// Expected header: x,y[,time[,category]]. Extra columns are ignored;
/// missing time/category default to 0. Parse failures and invalid
/// coordinates are reported with the offending 1-based line number.
Result<PointDataset> LoadDatasetCsv(const std::string& path);

/// As above; with options.sanitize, invalid-coordinate rows are dropped
/// and their count stored in *dropped_rows (may be null).
Result<PointDataset> LoadDatasetCsv(const std::string& path,
                                    const CsvLoadOptions& options,
                                    size_t* dropped_rows = nullptr);

/// Stream-based core of the loader: parses CSV from `in` into a dataset
/// named `name`. This is the entry point the fuzz targets drive (no file
/// system involved) and what the HTTP upload path will call.
Result<PointDataset> LoadDatasetCsvStream(std::istream& in,
                                          std::string_view name,
                                          const CsvLoadOptions& options,
                                          size_t* dropped_rows = nullptr);

Status SaveDatasetCsv(const PointDataset& dataset, const std::string& path);

}  // namespace slam
