#include "graph/graph_io.h"

#include <array>
#include <charconv>
#include <fstream>
#include <map>
#include <sstream>

#include "data/tsv_io.h"  // IoError
#include "util/contracts.h"
#include "util/str.h"

namespace tinge {

namespace {

// Edge rows are formatted into a string that goes to the stream each time
// it passes 64 KiB. std::to_chars in general format at precision p writes
// the bytes printf's "%.<p>g" does, without a temporary string per number.
constexpr std::size_t kRowFlushBytes = std::size_t(1) << 16;

void append_general(std::string& rows, double value, int precision) {
  char text[32];  // the longest "%.9g" of a double has 16 characters
  const auto [end, error] = std::to_chars(
      text, text + sizeof(text), value, std::chars_format::general, precision);
  TINGE_ASSERT(error == std::errc());
  rows.append(text, end);
}

void write_rows(std::string& rows, std::ostream& out) {
  out.write(rows.data(), static_cast<std::streamsize>(rows.size()));
  rows.clear();
}

void end_row(std::string& rows, std::ostream& out) {
  rows += '\n';
  if (rows.size() >= kRowFlushBytes) write_rows(rows, out);
}

}  // namespace

void write_edge_list(const GeneNetwork& network, std::ostream& out) {
  out << "# nodes: " << network.n_nodes() << '\n';
  for (const auto& name : network.node_names()) out << "# node\t" << name << '\n';
  const auto& names = network.node_names();
  std::string rows;
  for (const Edge& e : network.edges()) {
    rows.append(names[e.u]) += '\t';
    rows.append(names[e.v]) += '\t';
    append_general(rows, static_cast<double>(e.weight), 9);
    end_row(rows, out);
  }
  write_rows(rows, out);
}

void write_edge_list_file(const GeneNetwork& network, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open " + path + " for writing");
  write_edge_list(network, out);
  if (!out) throw IoError("write to " + path + " failed");
}

GeneNetwork read_edge_list(std::istream& in) {
  std::vector<std::string> names;
  std::map<std::string, std::uint32_t> index;
  std::vector<std::array<std::string, 3>> pending;

  std::string line;
  while (std::getline(in, line)) {
    const std::string_view trimmed = trim(line);
    if (trimmed.empty()) continue;
    if (starts_with(trimmed, "# node\t") ||
        starts_with(trimmed, "# node ")) {
      const auto fields = split_view(trimmed, '\t');
      if (fields.size() == 2) {
        const std::string name{trim(fields[1])};
        index.emplace(name, static_cast<std::uint32_t>(names.size()));
        names.push_back(name);
      }
      continue;
    }
    if (trimmed.front() == '#') continue;
    const auto fields = split_view(trimmed, '\t');
    if (fields.size() < 3)
      throw IoError("edge list row needs >= 3 tab-separated columns: " + line);
    pending.push_back({std::string(trim(fields[0])), std::string(trim(fields[1])),
                       std::string(trim(fields[2]))});
  }

  // Nodes mentioned only in edges (file without the node header) get ids in
  // order of first appearance.
  for (const auto& row : pending) {
    for (int side = 0; side < 2; ++side) {
      const std::string& name = row[static_cast<std::size_t>(side)];
      if (index.emplace(name, static_cast<std::uint32_t>(names.size())).second)
        names.push_back(name);
    }
  }

  GeneNetwork network(std::move(names));
  for (const auto& row : pending) {
    const auto weight = parse_float(row[2]);
    if (!weight) throw IoError("bad edge weight: " + row[2]);
    network.add_edge(index.at(row[0]), index.at(row[1]), *weight);
  }
  network.finalize();
  return network;
}

GeneNetwork read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot open " + path);
  return read_edge_list(in);
}

void write_edge_list_with_pvalues(
    const GeneNetwork& network,
    const std::function<double(float)>& null_p_value, std::ostream& out) {
  out << "# nodes: " << network.n_nodes() << '\n';
  for (const auto& name : network.node_names()) out << "# node\t" << name << '\n';
  out << "# columns: gene_a\tgene_b\tmi_nats\tnull_p_value\n";
  const auto& names = network.node_names();
  std::string rows;
  for (const Edge& e : network.edges()) {
    rows.append(names[e.u]) += '\t';
    rows.append(names[e.v]) += '\t';
    append_general(rows, static_cast<double>(e.weight), 9);
    rows += '\t';
    append_general(rows, null_p_value(e.weight), 3);
    end_row(rows, out);
  }
  write_rows(rows, out);
}

void write_edge_list_with_pvalues_file(
    const GeneNetwork& network,
    const std::function<double(float)>& null_p_value, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open " + path + " for writing");
  write_edge_list_with_pvalues(network, null_p_value, out);
  if (!out) throw IoError("write to " + path + " failed");
}

void write_sif(const GeneNetwork& network, std::ostream& out) {
  for (const Edge& e : network.edges()) {
    out << network.node_names()[e.u] << "\tmi\t" << network.node_names()[e.v]
        << '\n';
  }
}

void write_sif_file(const GeneNetwork& network, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("cannot open " + path + " for writing");
  write_sif(network, out);
  if (!out) throw IoError("write to " + path + " failed");
}

}  // namespace tinge
