#include "storage/manifest.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "graph/fingerprint.h"
#include "graph/io.h"
#include "storage/format_util.h"
#include "storage/io_util.h"

namespace fairclique {
namespace storage {

namespace {

constexpr char kHeaderLine[] = "fairclique-manifest v1";

}  // namespace

std::string EscapeToken(const std::string& s) {
  if (s.empty()) return "%";  // a lone '%' is never a valid escape sequence
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c > ' ' && c < 0x7f && c != '%') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[4];
      std::snprintf(buf, sizeof(buf), "%%%02x", c);
      out += buf;
    }
  }
  return out;
}

bool UnescapeToken(const std::string& token, std::string* out) {
  if (token == "%") {
    out->clear();
    return true;
  }
  out->clear();
  out->reserve(token.size());
  for (size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out->push_back(token[i]);
      continue;
    }
    int hi = 0, lo = 0;
    if (i + 2 >= token.size() || !HexDigit(token[i + 1], &hi) ||
        !HexDigit(token[i + 2], &lo)) {
      return false;
    }
    out->push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return true;
}

ManifestEntry* Manifest::Find(const std::string& name) {
  for (ManifestEntry& entry : entries) {
    if (entry.name == name) return &entry;
  }
  return nullptr;
}

void Manifest::Remove(const std::string& name) {
  entries.erase(std::remove_if(entries.begin(), entries.end(),
                               [&name](const ManifestEntry& e) {
                                 return e.name == name;
                               }),
                entries.end());
}

Status SaveManifest(const Manifest& manifest, const std::string& path) {
  std::string body = std::string(kHeaderLine) + "\n";
  for (const ManifestEntry& e : manifest.entries) {
    body += "graph " + EscapeToken(e.name) + " " +
            EscapeToken(e.snapshot_file) + " " +
            (e.wal_file.empty() ? "-" : EscapeToken(e.wal_file)) + " " +
            std::to_string(e.snapshot_version) + " " +
            FingerprintHex(e.snapshot_fingerprint) + " " +
            EscapeToken(e.source) + "\n";
  }
  body += "checksum " + FingerprintHex(Checksum(AsBytes(body))) + "\n";
  return AtomicWriteFile(path, body);
}

Status LoadManifest(const std::string& path, Manifest* out) {
  std::string contents;
  FAIRCLIQUE_RETURN_NOT_OK(ReadFile(path, &contents));
  out->entries.clear();

  // Split off and verify the checksum line first: it covers every byte
  // before it.
  size_t checksum_pos = contents.rfind("checksum ");
  if (checksum_pos == std::string::npos ||
      (checksum_pos != 0 && contents[checksum_pos - 1] != '\n')) {
    return Status::Corruption("manifest " + path + ": missing checksum line");
  }
  std::string checksum_line = contents.substr(checksum_pos);
  while (!checksum_line.empty() &&
         (checksum_line.back() == '\n' || checksum_line.back() == '\r')) {
    checksum_line.pop_back();
  }
  uint64_t declared = 0;
  if (!ParseHex64(checksum_line.substr(9), &declared)) {
    return Status::Corruption("manifest " + path + ": bad checksum token");
  }
  const std::string body = contents.substr(0, checksum_pos);
  if (Checksum(AsBytes(body)) != declared) {
    return Status::Corruption("manifest " + path + ": checksum mismatch");
  }

  std::istringstream in(body);
  std::string line;
  size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const std::string at =
        "manifest " + path + ":" + std::to_string(line_no) + ": ";
    if (!saw_header) {
      if (line != kHeaderLine) {
        return Status::Corruption(at + "bad header line");
      }
      saw_header = true;
      continue;
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag != "graph") {
      return Status::Corruption(at + "unknown record '" + tag + "'");
    }
    std::string name_tok, snap_tok, wal_tok, version_tok, fp_tok, source_tok;
    if (!(ls >> name_tok >> snap_tok >> wal_tok >> version_tok >> fp_tok >>
          source_tok)) {
      return Status::Corruption(at + "short graph record");
    }
    ManifestEntry entry;
    if (!UnescapeToken(name_tok, &entry.name) ||
        !UnescapeToken(snap_tok, &entry.snapshot_file) ||
        !UnescapeToken(source_tok, &entry.source)) {
      return Status::Corruption(at + "bad escaped token");
    }
    if (wal_tok != "-" && !UnescapeToken(wal_tok, &entry.wal_file)) {
      return Status::Corruption(at + "bad wal token");
    }
    if (!ParseU64(version_tok, &entry.snapshot_version) ||
        !ParseHex64(fp_tok, &entry.snapshot_fingerprint)) {
      return Status::Corruption(at + "bad version/fingerprint");
    }
    out->entries.push_back(std::move(entry));
  }
  if (!saw_header) {
    return Status::Corruption("manifest " + path + ": empty file");
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace fairclique
