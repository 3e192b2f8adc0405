#include "core/change_cube.h"

#include "common/string_util.h"
#include "core/diff.h"

namespace somr::core {

namespace {

const extract::ObjectInstance* InstanceAt(
    const std::vector<extract::PageObjects>& revisions,
    extract::ObjectType type, const matching::VersionRef& ref) {
  if (ref.revision < 0 ||
      static_cast<size_t>(ref.revision) >= revisions.size()) {
    return nullptr;
  }
  const auto& bucket =
      revisions[static_cast<size_t>(ref.revision)].OfType(type);
  if (ref.position < 0 ||
      static_cast<size_t>(ref.position) >= bucket.size()) {
    return nullptr;
  }
  return &bucket[static_cast<size_t>(ref.position)];
}

std::string PropertyName(const extract::ObjectInstance& obj, size_t column) {
  if (obj.type == extract::ObjectType::kList) return "item";
  if (obj.type == extract::ObjectType::kInfobox) {
    return column == 0 ? "key" : "value";
  }
  if (column < obj.schema.size()) return obj.schema[column];
  return "column " + std::to_string(column);
}

std::string EntityName(const extract::ObjectInstance& obj, size_t row) {
  if (row >= obj.rows.size() || obj.rows[row].empty()) return "";
  return obj.rows[row][0];
}

std::string CsvEscape(const std::string& value) {
  bool needs_quotes = value.find_first_of(",\"\n") != std::string::npos;
  if (!needs_quotes) return value;
  std::string out = "\"";
  for (char c : value) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::vector<ChangeCubeRecord> BuildChangeCube(
    const PageResult& page, extract::ObjectType type,
    const std::vector<UnixSeconds>& timestamps) {
  std::vector<ChangeCubeRecord> records;
  const matching::IdentityGraph& graph = page.GraphFor(type);

  auto stamp = [&](int revision) -> UnixSeconds {
    if (revision >= 0 &&
        static_cast<size_t>(revision) < timestamps.size()) {
      return timestamps[static_cast<size_t>(revision)];
    }
    return 0;
  };
  auto base_record = [&](int64_t object_id, int revision) {
    ChangeCubeRecord record;
    record.page_title = page.title;
    record.object_type = type;
    record.object_id = object_id;
    record.revision = revision;
    record.timestamp = stamp(revision);
    return record;
  };

  for (const matching::TrackedObjectRecord& object : graph.objects()) {
    // Object creation.
    if (!object.versions.empty()) {
      ChangeCubeRecord record =
          base_record(object.object_id, object.versions.front().revision);
      record.change = "object+";
      records.push_back(std::move(record));
    }
    for (size_t v = 1; v < object.versions.size(); ++v) {
      const extract::ObjectInstance* before =
          InstanceAt(page.revisions, type, object.versions[v - 1]);
      const extract::ObjectInstance* after =
          InstanceAt(page.revisions, type, object.versions[v]);
      if (before == nullptr || after == nullptr) continue;
      int revision = object.versions[v].revision;
      for (const CellChange& change : DiffVersions(*before, *after)) {
        ChangeCubeRecord record = base_record(object.object_id, revision);
        switch (change.kind) {
          case CellChange::Kind::kCellEdited:
            record.change = "cell";
            record.property = PropertyName(*after, change.column);
            record.entity = EntityName(*after, change.row);
            break;
          case CellChange::Kind::kRowInserted:
            record.change = "row+";
            record.entity = EntityName(*after, change.row);
            break;
          case CellChange::Kind::kRowDeleted:
            record.change = "row-";
            record.entity = EntityName(*before, change.row);
            break;
        }
        record.old_value = change.before_value;
        record.new_value = change.after_value;
        records.push_back(std::move(record));
      }
    }
    // Object deletion before the end of the history.
    if (!object.versions.empty()) {
      int last = object.versions.back().revision;
      if (static_cast<size_t>(last) + 1 < page.revisions.size()) {
        ChangeCubeRecord record = base_record(object.object_id, last + 1);
        record.change = "object-";
        records.push_back(std::move(record));
      }
    }
  }
  return records;
}

std::string ChangeCubeToCsv(const std::vector<ChangeCubeRecord>& records) {
  std::string out =
      "page,type,object,revision,timestamp,change,property,entity,"
      "old_value,new_value\n";
  for (const ChangeCubeRecord& r : records) {
    out += CsvEscape(r.page_title);
    out += ',';
    out += extract::ObjectTypeName(r.object_type);
    out += ',';
    out += std::to_string(r.object_id);
    out += ',';
    out += std::to_string(r.revision);
    out += ',';
    out += FormatIso8601(r.timestamp);
    out += ',';
    out += CsvEscape(r.change);
    out += ',';
    out += CsvEscape(r.property);
    out += ',';
    out += CsvEscape(r.entity);
    out += ',';
    out += CsvEscape(r.old_value);
    out += ',';
    out += CsvEscape(r.new_value);
    out += '\n';
  }
  return out;
}

std::string ChangeCubeToJsonLines(
    const std::vector<ChangeCubeRecord>& records) {
  std::string out;
  for (const ChangeCubeRecord& r : records) {
    out += "{\"page\":\"" + JsonEscape(r.page_title) + "\"";
    out += ",\"type\":\"";
    out += extract::ObjectTypeName(r.object_type);
    out += "\",\"object\":" + std::to_string(r.object_id);
    out += ",\"revision\":" + std::to_string(r.revision);
    out += ",\"timestamp\":\"" + FormatIso8601(r.timestamp) + "\"";
    out += ",\"change\":\"" + JsonEscape(r.change) + "\"";
    if (!r.property.empty()) {
      out += ",\"property\":\"" + JsonEscape(r.property) + "\"";
    }
    if (!r.entity.empty()) {
      out += ",\"entity\":\"" + JsonEscape(r.entity) + "\"";
    }
    if (!r.old_value.empty()) {
      out += ",\"old\":\"" + JsonEscape(r.old_value) + "\"";
    }
    if (!r.new_value.empty()) {
      out += ",\"new\":\"" + JsonEscape(r.new_value) + "\"";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace somr::core
