#include "core/checkpoint.h"

#include <sstream>
#include <utility>

#include "core/schema.h"

namespace olapdc {

namespace {

/// Summary-line suffix of a checkpoint captured under most-constrained-
/// first branching (no suffix: id order).
constexpr char kMostConstrainedOrder[] = " order most-constrained";

/// %-escapes whitespace, '%', and the empty string so an assignment
/// name survives the whitespace-separated checkpoint format.
std::string EscapeName(const std::string& name) {
  if (name.empty()) return "%e";
  std::string out;
  for (char c : name) {
    switch (c) {
      case '%': out += "%%"; break;
      case ' ': out += "%s"; break;
      case '\t': out += "%t"; break;
      case '\n': out += "%n"; break;
      case '\r': out += "%r"; break;
      default: out += c;
    }
  }
  return out;
}

bool UnescapeName(const std::string& escaped, std::string* out) {
  out->clear();
  if (escaped == "%e") return true;
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '%') {
      out->push_back(escaped[i]);
      continue;
    }
    if (++i >= escaped.size()) return false;
    switch (escaped[i]) {
      case '%': out->push_back('%'); break;
      case 's': out->push_back(' '); break;
      case 't': out->push_back('\t'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      default: return false;
    }
  }
  return true;
}

void WriteEdges(std::ostringstream& out,
                const std::vector<std::pair<CategoryId, CategoryId>>& edges) {
  out << edges.size();
  for (const auto& [u, v] : edges) out << " " << u << " " << v;
}

bool ReadEdges(std::istringstream& in,
               std::vector<std::pair<CategoryId, CategoryId>>* edges) {
  size_t num_edges = 0;
  if (!(in >> num_edges) || num_edges > (size_t{1} << 24)) return false;
  edges->clear();
  edges->reserve(num_edges);
  for (size_t e = 0; e < num_edges; ++e) {
    CategoryId u, v;
    if (!(in >> u >> v)) return false;
    edges->emplace_back(u, v);
  }
  return true;
}

}  // namespace

std::string DimsatCheckpoint::Serialize() const {
  std::ostringstream out;
  const char* const order = branch_heuristic ? kMostConstrainedOrder : "";
  if (num_components == 0) {
    // Monolithic checkpoints keep the v1 format, so id-order checkpoint
    // text round-trips byte-for-byte with pre-decomposition consumers.
    out << "dimsat-checkpoint v1\n";
    out << "root " << root << " categories " << num_categories << " frames "
        << frames.size() << order << "\n";
    for (const DimsatCheckpointFrame& frame : frames) {
      out << "frame " << frame.next_mask << " " << frame.depth << " ";
      WriteEdges(out, frame.g.Edges());
      out << "\n";
    }
    return out.str();
  }
  out << "dimsat-checkpoint v2\n";
  out << "root " << root << " categories " << num_categories << " frames "
      << frames.size() << " components " << num_components << " solved "
      << solved.size() << order << "\n";
  for (const DimsatCheckpointFrame& frame : frames) {
    out << "frame " << frame.component << " " << frame.next_mask << " "
        << frame.depth << " ";
    WriteEdges(out, frame.g.Edges());
    out << "\n";
  }
  for (const DimsatSolvedComponent& comp : solved) {
    out << "solved " << comp.component << " " << comp.models.size() << "\n";
    for (const FrozenDimension& model : comp.models) {
      out << "model ";
      WriteEdges(out, model.g.Edges());
      size_t assigned = 0;
      for (const auto& name : model.names) {
        if (name.has_value()) ++assigned;
      }
      out << " " << assigned;
      for (size_t c = 0; c < model.names.size(); ++c) {
        if (model.names[c].has_value()) {
          out << " " << c << " " << EscapeName(*model.names[c]);
        }
      }
      out << "\n";
    }
  }
  return out.str();
}

Result<DimsatCheckpoint> DimsatCheckpoint::Deserialize(
    std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "dimsat-checkpoint" ||
      (version != "v1" && version != "v2")) {
    return Status::ParseError("not a dimsat-checkpoint v1/v2 header");
  }
  const bool v2 = version == "v2";
  DimsatCheckpoint cp;
  std::string kw_root, kw_categories, kw_frames;
  size_t num_frames = 0;
  if (!(in >> kw_root >> cp.root >> kw_categories >> cp.num_categories >>
        kw_frames >> num_frames) ||
      kw_root != "root" || kw_categories != "categories" ||
      kw_frames != "frames") {
    return Status::ParseError("malformed checkpoint summary line");
  }
  size_t num_solved = 0;
  if (v2) {
    std::string kw_components, kw_solved;
    if (!(in >> kw_components >> cp.num_components >> kw_solved >>
          num_solved) ||
        kw_components != "components" || kw_solved != "solved" ||
        cp.num_components < 2) {
      return Status::ParseError("malformed v2 checkpoint summary line");
    }
  }
  // The rest of the summary line: the optional branching order.
  std::string rest;
  std::getline(in, rest);
  if (!rest.empty()) {
    if (rest != kMostConstrainedOrder) {
      return Status::ParseError("malformed checkpoint order suffix");
    }
    cp.branch_heuristic = true;
  }
  if (cp.num_categories <= 0 || cp.root < 0 ||
      cp.root >= cp.num_categories) {
    return Status::InvalidArgument("checkpoint root out of range");
  }
  if (num_frames > (size_t{1} << 24) || num_solved > (size_t{1} << 24)) {
    return Status::ParseError("implausible checkpoint frame count");
  }
  cp.frames.reserve(num_frames);
  std::vector<std::pair<CategoryId, CategoryId>> edges;
  for (size_t i = 0; i < num_frames; ++i) {
    std::string kw_frame;
    int component = -1;
    uint32_t next_mask = 0;
    int depth = 0;
    if (!(in >> kw_frame) || kw_frame != "frame" ||
        (v2 && !(in >> component)) || !(in >> next_mask >> depth) ||
        depth < 0 ||
        (v2 && (component < 0 || component >= cp.num_components))) {
      return Status::ParseError("malformed checkpoint frame " +
                                std::to_string(i));
    }
    if (!ReadEdges(in, &edges)) {
      return Status::ParseError("truncated edge list in frame " +
                                std::to_string(i));
    }
    std::optional<Subhierarchy> g =
        Subhierarchy::FromPartialEdges(cp.num_categories, cp.root, edges);
    if (!g.has_value()) {
      return Status::InvalidArgument(
          "checkpoint frame " + std::to_string(i) +
          " is not a root-reachable partial subhierarchy");
    }
    cp.frames.push_back(
        DimsatCheckpointFrame{std::move(*g), next_mask, depth, component});
  }
  cp.solved.reserve(num_solved);
  for (size_t s = 0; s < num_solved; ++s) {
    std::string kw_solved;
    DimsatSolvedComponent comp;
    size_t num_models = 0;
    if (!(in >> kw_solved >> comp.component >> num_models) ||
        kw_solved != "solved" || comp.component < 0 ||
        comp.component >= cp.num_components ||
        num_models > (size_t{1} << 24)) {
      return Status::ParseError("malformed solved-component record " +
                                std::to_string(s));
    }
    comp.models.reserve(num_models);
    for (size_t m = 0; m < num_models; ++m) {
      std::string kw_model;
      if (!(in >> kw_model) || kw_model != "model" ||
          !ReadEdges(in, &edges)) {
        return Status::ParseError("malformed component model record");
      }
      std::optional<Subhierarchy> g =
          Subhierarchy::FromPartialEdges(cp.num_categories, cp.root, edges);
      if (!g.has_value()) {
        return Status::InvalidArgument(
            "component model is not a root-reachable subhierarchy");
      }
      FrozenDimension model{
          std::move(*g),
          CAssignment(static_cast<size_t>(cp.num_categories), std::nullopt)};
      size_t assigned = 0;
      if (!(in >> assigned) ||
          assigned > static_cast<size_t>(cp.num_categories)) {
        return Status::ParseError("malformed component model assignment");
      }
      for (size_t a = 0; a < assigned; ++a) {
        int cat = -1;
        std::string escaped, name;
        if (!(in >> cat >> escaped) || cat < 0 ||
            cat >= cp.num_categories || !UnescapeName(escaped, &name)) {
          return Status::ParseError("malformed component model assignment");
        }
        model.names[cat] = std::move(name);
      }
      comp.models.push_back(std::move(model));
    }
    cp.solved.push_back(std::move(comp));
  }
  return cp;
}

Result<DimsatCheckpoint> ParseCheckpointFor(const DimensionSchema& ds,
                                            CategoryId root,
                                            std::string_view text) {
  OLAPDC_ASSIGN_OR_RETURN(DimsatCheckpoint cp,
                          DimsatCheckpoint::Deserialize(text));
  if (cp.root != root) {
    return Status::InvalidArgument(
        "checkpoint root " + std::to_string(cp.root) +
        " does not match query root " + std::to_string(root));
  }
  if (cp.num_categories != ds.hierarchy().num_categories()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(cp.num_categories) +
        " categories, schema has " +
        std::to_string(ds.hierarchy().num_categories()));
  }
  return cp;
}

}  // namespace olapdc
