// Writes the memory gate's input (tests/memory_gate.cmake): a TSV of
// `genes` x `samples` independent standard normal draws, so few genes and
// many samples make the expression matrices dominate a build's memory.
//
//   memory_gate_input <out.tsv> <genes> <samples>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "stats/rng.h"

int main(int argc, char** argv) {
  if (argc != 4) {
    std::fprintf(stderr, "usage: memory_gate_input <out.tsv> <genes> <samples>\n");
    return 2;
  }
  const long genes = std::atol(argv[2]);
  const long samples = std::atol(argv[3]);
  std::ofstream out(argv[1], std::ios::binary);
  if (!out || genes < 1 || samples < 1) {
    std::fprintf(stderr, "memory_gate_input: bad arguments\n");
    return 2;
  }
  std::string line("gene");
  for (long s = 0; s < samples; ++s) {
    line += "\ts";
    line += std::to_string(s);
  }
  out << line << '\n';
  tinge::Xoshiro256 rng(20140519);
  char cell[32];
  for (long g = 0; g < genes; ++g) {
    line.clear();
    line += 'g';
    line += std::to_string(g);
    for (long s = 0; s < samples; ++s) {
      const auto value = static_cast<float>(rng.normal());
      line += '\t';
      line.append(cell, std::to_chars(cell, cell + sizeof cell, value).ptr);
    }
    out << line << '\n';
  }
  return out ? 0 : 1;
}
