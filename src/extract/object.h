#pragma once

#include <string>
#include <vector>

namespace somr::extract {

/// The three structured object types the paper matches (Sec. III).
enum class ObjectType {
  kTable,
  kInfobox,
  kList,
};

const char* ObjectTypeName(ObjectType type);

/// One object instance inside one page version — a node of the identity
/// graph. Content is held as rows of plain-text cells:
///   - tables: one entry per row, one string per cell;
///   - infoboxes: one entry per property, two strings (key, value);
///   - lists: one entry per item, a single string.
struct ObjectInstance {
  ObjectType type = ObjectType::kTable;

  /// Position-rank among objects of the same type on the page, in source
  /// order (0-based). The paper's only spatial feature (Sec. IV-B1).
  int position = 0;

  /// Hierarchical section titles enclosing the object, outermost first.
  std::vector<std::string> section_path;

  /// Table caption / infobox template name / empty for lists.
  std::string caption;

  /// Plain-text content rows (see class comment).
  std::vector<std::vector<std::string>> rows;

  /// Schema row: table header cells, infobox property keys; empty for
  /// lists (they have no schema — Sec. V-B).
  std::vector<std::string> schema;

  size_t RowCount() const { return rows.size(); }
  size_t ColumnCount() const;

  /// All cell texts flattened, row-major.
  std::vector<std::string> FlatCells() const;

  bool operator==(const ObjectInstance&) const = default;
};

/// All object instances of one page version, grouped by type, each with
/// its position rank assigned.
struct PageObjects {
  std::vector<ObjectInstance> tables;
  std::vector<ObjectInstance> infoboxes;
  std::vector<ObjectInstance> lists;

  const std::vector<ObjectInstance>& OfType(ObjectType type) const;
  std::vector<ObjectInstance>& OfType(ObjectType type);

  size_t TotalCount() const {
    return tables.size() + infoboxes.size() + lists.size();
  }

  bool operator==(const PageObjects&) const = default;
};

}  // namespace somr::extract
